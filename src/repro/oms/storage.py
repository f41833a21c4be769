"""File-system staging between OMS and encapsulated tools.

Paper Section 2.1: "In case of encapsulation, the required data are copied
to and from the database via the UNIX file system."  The staging area is
that copy path.  Every export/import writes or reads a real file under the
staging root and charges the simulated clock per byte plus a per-file
overhead — including for read-only accesses, which Section 3.6 identifies
as the dominant cost on realistic design sizes.

The copy-on-write extension (on by default) attacks exactly that cost:
because every payload in OMS is content-addressed, an export can compare
the digest of an already-staged file against the database's O(1) payload
probe and skip the copy when they match, and an import can skip the
database write when the tool did not change the file.  A hit charges the
clock one metadata operation — the digest probe — instead of a per-byte
copy, so repeated read-only access to an unchanged design becomes
size-independent.  Construct with ``copy_on_write=False`` for the naive
always-copy behaviour (the baseline arm of ``bench_staging``).
"""

from __future__ import annotations

import dataclasses
import functools
import os
import pathlib
import threading
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import IntegrityError, OMSError
from repro.faults import active_plan, corruption_point, fault_point
from repro.ids import sort_key
from repro.oms.blobs import (
    EMPTY_DIGEST,
    BlobStat,
    classify_damage,
    digest_bytes,
)
from repro.oms.database import OMSDatabase
from repro.oms.zerocopy import probe_capabilities, reflink_file

#: classification for a staged file whose record exists but whose bytes
#: vanished — repair is trivial (drop the record; the next export rewrites)
CLASS_MISSING = "missing"

#: suffixes of half-written files crashed writers leave under the root
_STALE_SUFFIXES = (".partial", ".tmp")


@dataclasses.dataclass(frozen=True)
class StagedFile:
    """Record of one file currently present in the staging area."""

    oid: str
    path: pathlib.Path
    size: int
    digest: str = EMPTY_DIGEST


def _synchronized(method):
    """Serialise one staging operation on the area's reentrant lock.

    Concurrent scheduler workers share one default area (and each run
    has its own); the lock keeps the staged-file records, path claims
    and accounting counters coherent under that sharing.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._lock:
            return method(self, *args, **kwargs)

    return wrapper


class StagingArea:
    """A UNIX directory through which design data enters and leaves OMS.

    The default area (no *prefix*) makes its root at construction.  An
    area with a *prefix* is one scheduled run's: it stages into a root
    the default area made, every file name it picks starts with
    *prefix*, and it never makes, sweeps or lists the directory.  Its
    records are its own, so its copy-on-write decisions do not depend
    on what concurrent runs stage.
    """

    def __init__(
        self,
        database: OMSDatabase,
        root: pathlib.Path,
        copy_on_write: bool = True,
        prefix: str = "",
    ) -> None:
        self._db = database
        self.root = pathlib.Path(root)
        self.prefix = prefix
        #: stale ``.partial``/``.tmp`` files swept from a root found
        #: already there
        self.swept_temps: List[pathlib.Path] = []
        self.copy_on_write = copy_on_write
        self._staged: Dict[str, StagedFile] = {}
        #: staging path -> owning oid; guards against two objects being
        #: exported onto the same file name
        self._by_path: Dict[pathlib.Path, str] = {}
        #: payload digest -> a staged path known to hold those bytes; the
        #: index behind the zero-copy hard-link export path.  Entries are
        #: advisory — the source is always re-hashed before linking.
        self._by_digest: Dict[str, pathlib.Path] = {}
        #: cumulative accounting for the Section 3.6 experiment
        self.bytes_exported = 0
        self.bytes_imported = 0
        self.files_exported = 0
        self.files_imported = 0
        #: copies avoided because the staged file already matched by digest
        self.export_hits = 0
        #: copies avoided by hard-linking another staged file's bytes
        self.export_links = 0
        #: writable exports satisfied by reflinking a peer staged file —
        #: no payload bytes copied at all
        self.export_reflinks = 0
        #: database writes avoided because the tool left the file unchanged
        self.import_hits = 0
        self._lock = threading.RLock()
        if not prefix:
            try:
                self.root.mkdir(parents=True)
            except FileExistsError:
                self.swept_temps = self._sweep_stale_temps()

    # -- export: OMS -> file system (checkout for tool use) ---------------------

    @_synchronized
    def export_object(
        self,
        oid: str,
        filename: Optional[str] = None,
        writable: bool = True,
    ) -> StagedFile:
        """Copy the payload of *oid* out of OMS into a staging file.

        This is charged even when the caller only intends to read — OMS
        offers no in-place access (Section 2.1), which is exactly the
        read-only penalty measured in ``bench_performance``.  With
        copy-on-write enabled, an already-staged file whose content digest
        matches the stored payload is validated instead of rewritten, and
        the charge drops to a single metadata operation.

        ``writable=False`` declares the caller will only read the staged
        file; such an export may be materialised as a hard link to
        another staged file with the same payload digest — zero payload
        bytes copied.  Writable exports (the default) always get a
        private inode, so editing one staged file in place can never
        bleed into another.
        """
        staged, copied = self._export_one(oid, filename, writable)
        if copied is None:
            self._db.clock.charge_metadata_op()
        else:
            self._db.clock.charge_copy(copied, files=1)
        return staged

    @_synchronized
    def export_objects(
        self,
        oids: Sequence[str],
        filenames: Optional[Sequence[Optional[str]]] = None,
        writable: bool = True,
    ) -> List[StagedFile]:
        """Stage many objects with one batched charge.

        The whole batch pays a single metadata operation (one request to
        OMS) plus one aggregated copy charge covering only the objects
        that actually had to be written — the per-file overhead of digest
        hits is amortized away entirely.  ``writable=False`` additionally
        enables the hard-link fast path (see :meth:`export_object`).
        """
        if filenames is not None and len(filenames) != len(oids):
            raise OMSError("export_objects: filenames must match oids 1:1")
        results: List[StagedFile] = []
        miss_bytes = 0
        misses = 0
        self._db.clock.charge_metadata_op()
        for index, oid in enumerate(oids):
            filename = filenames[index] if filenames is not None else None
            staged, copied = self._export_one(oid, filename, writable)
            if copied is not None:
                miss_bytes += copied
                misses += 1
            results.append(staged)
        if misses:
            self._db.clock.charge_copy(miss_bytes, files=misses)
        return results

    # -- import: file system -> OMS (checkin after tool run) ----------------------

    @_synchronized
    def import_object(self, oid: str, path: Optional[pathlib.Path] = None) -> int:
        """Copy a staging file back into the payload of *oid*.

        Returns the number of bytes imported.  When *path* is omitted the
        file previously exported for *oid* is used.  With copy-on-write
        enabled, a file whose digest still matches the stored payload is
        recognised in one metadata operation and the database write is
        skipped — the common case after a read-only tool run.
        """
        size, changed = self._import_one(oid, path)
        if changed:
            self._db.clock.charge_copy(size, files=1)
        else:
            self._db.clock.charge_metadata_op()
        return size

    @_synchronized
    def import_objects(self, oids: Sequence[str]) -> Dict[str, int]:
        """Import many previously-staged objects with one batched charge.

        Returns ``{oid: bytes}`` for every object in the batch.  Like
        :meth:`export_objects`, the batch pays one metadata operation plus
        a single aggregated copy charge for the files that changed.
        """
        sizes: Dict[str, int] = {}
        miss_bytes = 0
        misses = 0
        self._db.clock.charge_metadata_op()
        for oid in oids:
            sizes[oid], changed = self._import_one(oid, None)
            if changed:
                miss_bytes += sizes[oid]
                misses += 1
        if misses:
            self._db.clock.charge_copy(miss_bytes, files=misses)
        return sizes

    # -- bookkeeping ----------------------------------------------------------------

    @_synchronized
    def staged(self) -> List[StagedFile]:
        """All files currently staged, ordered by (numeric) object id."""
        return [
            self._staged[oid] for oid in sorted(self._staged, key=sort_key)
        ]

    def is_staged(self, oid: str) -> bool:
        return oid in self._staged

    @_synchronized
    def release(self, oid: str) -> None:
        """Remove the staged copy of *oid* from the file system.

        Tolerates a file some tool already unlinked — the staging record
        and path claim are dropped either way, so accounting never drifts
        from what is actually on disk.
        """
        staged = self._staged.pop(oid, None)
        if staged is None:
            return
        if self._by_path.get(staged.path) == oid:
            del self._by_path[staged.path]
        if self._by_digest.get(staged.digest) == staged.path:
            del self._by_digest[staged.digest]
        try:
            staged.path.unlink()
        except FileNotFoundError:
            pass

    @_synchronized
    def clear(self) -> None:
        """Remove every staged file."""
        for oid in list(self._staged):
            self.release(oid)

    @_synchronized
    def orphan_files(self) -> List[pathlib.Path]:
        """Files under the staging root that no staging record claims.

        These are the leavings of a crash between writing a staged file
        and recording it (the ``staging.write`` window), and every file
        a crashed scheduled run staged under its name prefix — the bytes
        are all safely in OMS, so the files are pure waste.
        """
        claimed = set(self._by_path)
        return sorted(
            p for p in self.root.iterdir()
            if p.is_file() and p not in claimed
        )

    @_synchronized
    def adopt_existing(self) -> List[pathlib.Path]:
        """Re-record staged files a previous process left behind.

        Staged files are a durable copy-on-write cache, but the records
        claiming them live in memory — after a restart every file under
        the root looks like an orphan.  A file whose name maps back to a
        live object and whose content matches that object's payload
        digest is re-adopted (the next export of that object is a free
        hit); anything else stays orphaned for recovery to reclaim.
        """
        adopted: List[pathlib.Path] = []
        for path in self.orphan_files():
            head, sep, tail = path.name.rpartition("_")
            oid = f"{head}:{tail}" if sep else path.name
            if not self._db.exists(oid):
                continue
            stat = self._payload_stat(oid)
            if digest_bytes(path.read_bytes()) != stat.digest:
                continue
            self._record(
                StagedFile(
                    oid=oid, path=path, size=stat.size, digest=stat.digest
                )
            )
            adopted.append(path)
        return adopted

    @_synchronized
    def accounting(self) -> Dict[str, int]:
        """Cumulative staging traffic (bytes, file counts, CoW hits)."""
        return {
            "bytes_exported": self.bytes_exported,
            "bytes_imported": self.bytes_imported,
            "files_exported": self.files_exported,
            "files_imported": self.files_imported,
            "export_hits": self.export_hits,
            "export_links": self.export_links,
            "export_reflinks": self.export_reflinks,
            "import_hits": self.import_hits,
        }

    # -- storage integrity -----------------------------------------------------------

    def read_staged(self, oid: str) -> bytes:
        """Verified read of the staged copy of *oid*.

        This is the path that feeds staged bytes to encapsulated tools:
        the file is re-hashed against the digest recorded when it was
        staged, so a tool can never be served bytes that rotted (or were
        torn) after the export.  Raises :class:`IntegrityError` with the
        damage classification instead of returning garbage.

        Only the record snapshot happens under the area lock —
        :class:`StagedFile` is frozen, so the file read and the re-hash
        (the expensive part) run outside it and concurrent exports of
        other objects are never stalled behind a slow read.
        """
        with self._lock:
            staged = self._staged.get(oid)
        if staged is None:
            raise OMSError(
                f"object {oid!r} has no staged file; export it first"
            )
        try:
            data = staged.path.read_bytes()
        except FileNotFoundError:
            raise IntegrityError(
                f"staged file vanished: {staged.path}",
                location=str(staged.path),
                classification=CLASS_MISSING,
            ) from None
        problem = classify_damage(staged.size, data, staged.digest)
        if problem is not None:
            raise IntegrityError(
                f"staged file {staged.path} fails verification ({problem})",
                location=str(staged.path),
                classification=problem,
            )
        return data

    def verify_staged(self) -> List[Tuple[str, pathlib.Path, str]]:
        """Re-hash every staged file against its recorded digest.

        Returns ``(oid, path, classification)`` for each staged file whose
        bytes no longer match what was recorded at export/import time —
        bit-rot, truncation, a torn write, or a file that vanished
        outright.  Clean files are left untouched; nothing is repaired
        here (see :meth:`repair_staged`).  Hashing runs outside the area
        lock (:meth:`staged` snapshots the records under it).
        """
        findings: List[Tuple[str, pathlib.Path, str]] = []
        for staged in self.staged():
            try:
                data = staged.path.read_bytes()
            except FileNotFoundError:
                findings.append((staged.oid, staged.path, CLASS_MISSING))
                continue
            problem = classify_damage(staged.size, data, staged.digest)
            if problem is not None:
                findings.append((staged.oid, staged.path, problem))
        return findings

    @_synchronized
    def repair_staged(self, oid: str) -> bool:
        """Rewrite the staged copy of *oid* from its verified OMS payload.

        The database is the repair source: the payload is materialized
        through the verified read path, so a corrupt staged file is only
        ever overwritten with bytes that prove their own digest.  Returns
        ``False`` when the object no longer exists or has no staged
        record (the record is dropped instead — re-exporting is free).
        """
        staged = self._staged.get(oid)
        if staged is None:
            return False
        if not self._db.exists(oid):
            self.forget(oid)
            return False
        payload = self._db.get(oid).payload or b""
        self._write_breaking_links(staged.path, payload)
        stat = self._payload_stat(oid)
        self._record(
            StagedFile(oid=oid, path=staged.path, size=stat.size, digest=stat.digest)
        )
        return True

    @_synchronized
    def forget(self, oid: str) -> None:
        """Drop the staging record/claim for *oid* without touching disk.

        Synchronized like every other record mutator: the recovery sweep
        calls this while scheduler workers may still be staging, and an
        unlocked pop can interleave with :meth:`_record` so the path claim
        outlives the record it belonged to (a permanent phantom collision).
        """
        staged = self._staged.pop(oid, None)
        if staged is None:
            return
        if self._by_path.get(staged.path) == oid:
            del self._by_path[staged.path]
        if self._by_digest.get(staged.digest) == staged.path:
            del self._by_digest[staged.digest]

    def _sweep_stale_temps(self) -> List[pathlib.Path]:
        """Remove half-written ``.partial``/``.tmp`` files under the root.

        Crashed writers (and interrupted atomic renames) leave these
        behind; they are never valid staged data, so they are cleared
        when the root is found, before any record can claim their names.
        A root made just now cannot hold any.
        """
        swept: List[pathlib.Path] = []
        for path in sorted(self.root.iterdir()):
            if path.is_file() and path.suffix in _STALE_SUFFIXES:
                try:
                    path.unlink()
                except FileNotFoundError:  # pragma: no cover - race tolerance
                    continue
                swept.append(path)
        return swept

    # -- internals -------------------------------------------------------------------

    def _record(self, staged: StagedFile) -> None:
        """Register a staged file, retiring any claim on a previous path."""
        prev = self._staged.get(staged.oid)
        if (
            prev is not None
            and prev.path != staged.path
            and self._by_path.get(prev.path) == staged.oid
        ):
            del self._by_path[prev.path]
        self._staged[staged.oid] = staged
        self._by_path[staged.path] = staged.oid
        if staged.digest != EMPTY_DIGEST:
            self._by_digest[staged.digest] = staged.path

    def _claim_path(self, oid: str, filename: Optional[str]) -> pathlib.Path:
        name = filename or oid.replace(":", "_")
        path = self.root / f"{self.prefix}{name}"
        owner = self._by_path.get(path)
        if owner is not None and owner != oid:
            raise OMSError(
                f"staging collision: {path.name!r} is already staged for "
                f"{owner!r}; export of {oid!r} would overwrite it"
            )
        return path

    def _resolve_import_path(
        self, oid: str, path: Optional[pathlib.Path]
    ) -> pathlib.Path:
        if path is None:
            staged = self._staged.get(oid)
            if staged is None:
                raise OMSError(
                    f"object {oid!r} has no staged file; export it first or "
                    "pass an explicit path"
                )
            path = staged.path
        path = pathlib.Path(path)
        owner = self._by_path.get(path)
        if owner is not None and owner != oid:
            raise OMSError(
                f"staging collision: {path.name!r} is staged for {owner!r}, "
                f"cannot import it into {oid!r}"
            )
        if not path.exists():
            raise OMSError(f"staging file missing: {path}")
        return path

    def _payload_stat(self, oid: str) -> BlobStat:
        stat = self._db.payload_stat(oid)
        if stat is None:
            return BlobStat(digest=EMPTY_DIGEST, size=0)
        return stat

    def _export_one(
        self, oid: str, filename: Optional[str], writable: bool
    ) -> Tuple[StagedFile, Optional[int]]:
        """Stage *oid* down the ladder: hit, link or reflink, copy.

        Returns the record and the payload bytes copied, or ``None``
        when no bytes were copied; the caller charges the SimClock.
        """
        path = self._claim_path(oid, filename)
        stat = self._payload_stat(oid)
        copied: Optional[int] = None
        if self._export_is_hit(path, stat, writable):
            self.export_hits += 1
        elif self._share_from_peer(path, stat, writable):
            # zero-copy staging: another staged file already holds these
            # exact bytes, so no payload bytes cross the file system
            fault_point("staging.write")
            if writable:
                self.export_reflinks += 1
            else:
                self.export_links += 1
        else:
            payload = self._db.get(oid).payload or b""
            self._write_breaking_links(
                path, corruption_point("staging.file", payload)
            )
            # the staged file exists but is not yet recorded — a crash
            # here leaves a staging orphan for recovery to reclaim
            fault_point("staging.write")
            copied = len(payload)
            self.bytes_exported += copied
            self.files_exported += 1
        staged = StagedFile(oid=oid, path=path, size=stat.size, digest=stat.digest)
        self._record(staged)
        return staged, copied

    def _import_one(
        self, oid: str, path: Optional[pathlib.Path]
    ) -> Tuple[int, bool]:
        """Read a staged file back into *oid*; ``(bytes, changed)``.

        An unchanged file (copy-on-write on) skips the database write;
        the caller charges the SimClock.
        """
        path = self._resolve_import_path(oid, path)
        fault_point("staging.import")
        payload = path.read_bytes()
        digest = digest_bytes(payload)
        stat = self._payload_stat(oid)
        changed = not (self.copy_on_write and digest == stat.digest)
        if changed:
            self._db.set_payload(oid, payload, payload_delta_base=stat.digest)
            self.bytes_imported += len(payload)
            self.files_imported += 1
        else:
            self.import_hits += 1
        self._record(
            StagedFile(oid=oid, path=path, size=len(payload), digest=digest)
        )
        return len(payload), changed

    def _share_from_peer(
        self, path: pathlib.Path, stat: BlobStat, writable: bool
    ) -> bool:
        """Give *path* the bytes of a staged peer holding the payload.

        A read-only export becomes a hard link to the peer.  A writable
        export needs a private inode, so it reflinks the peer instead:
        the extents are shared copy-on-write, and editing the file in
        place never bleeds into the peer.  The digest index is advisory,
        so the peer is re-hashed first (a tool may have rewritten it in
        place), and every later :meth:`read_staged` re-hashes again, so
        an aliased mutation surfaces as an :class:`IntegrityError`
        rather than silently shared garbage.  Returns ``False`` (caller
        copies) when there is no usable peer, the index went stale, or
        the filesystem cannot link or reflink.
        """
        if not self.copy_on_write or stat.digest == EMPTY_DIGEST:
            return False
        source = self._by_digest.get(stat.digest)
        if source is None or source == path or not source.exists():
            return False
        # probed only once a peer exists: most exports never get here
        if writable and not probe_capabilities(self.root).reflink:
            return False
        if digest_bytes(source.read_bytes()) != stat.digest:
            # the index went stale (in-place rewrite); drop the entry so
            # later exports stop probing it
            del self._by_digest[stat.digest]
            return False
        try:
            if not writable:
                try:
                    os.link(source, path)
                except FileExistsError:
                    # an earlier export of this oid: replace its name
                    path.unlink()
                    os.link(source, path)
            elif not reflink_file(source, path):
                return False
        except OSError:  # pragma: no cover - filesystem refused mid-flight
            return False
        if writable and active_plan() is not None:
            # model damage landing on the cloned bytes at rest; the
            # destination is a private inode, so rewriting it can never
            # touch the peer
            self._write_breaking_links(
                path, corruption_point("staging.reflink", path.read_bytes())
            )
        return True

    def _write_breaking_links(self, path: pathlib.Path, data: bytes) -> None:
        """Write *data* to *path* without mutating hard-link peers.

        An in-place ``write_bytes`` truncates the shared inode, which
        would rewrite every staged file linked to it.  The file is
        created exclusively; only a path already there is unlinked, to
        give this path a private inode, and the create retried once.
        """
        try:
            handle = open(path, "xb")
        except FileExistsError:
            path.unlink()
            handle = open(path, "xb")
        with handle:
            handle.write(data)

    def _export_is_hit(
        self, path: pathlib.Path, stat: BlobStat, writable: bool = True
    ) -> bool:
        """True when the on-disk staged file already holds the payload.

        The file is always re-hashed rather than trusted from cached
        metadata — a tool may have rewritten it in place — so a hit can
        never serve stale bytes.  A writable export never hits on a
        hard-linked file (a previous read-only export may have aliased
        it): the caller falls through to a private rewrite instead, so
        in-place edits stay confined to this staging path.
        """
        if not self.copy_on_write or not path.exists():
            return False
        if writable:
            try:
                if path.stat().st_nlink > 1:
                    return False
            except OSError:  # pragma: no cover - stat race
                return False
        return digest_bytes(path.read_bytes()) == stat.digest

