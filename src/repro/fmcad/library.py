"""FMCAD libraries: UNIX directories of design files plus one ``.meta``.

The library is the unit of design-data storage in FMCAD (Section 2.2) —
there is no common database.  Version files are real files under the
library directory; metadata lives in the single ``.meta`` file and in
memory, and the two are reconciled only when a designer refreshes.
Version properties (the coupling's ``jcf_oid`` tags among them) live in
memory and in ``.meta``, each bag after the record of its version.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pathlib
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.clock import SimClock
from repro.errors import IntegrityError, LibraryError, MetaFileError
from repro.faults import corruption_point
from repro.fmcad.metafile import Bags, MetaFile, MetaRecord
from repro.oms import durable
from repro.fmcad.objects import (
    Cell,
    CellView,
    CellViewVersion,
    View,
    resolve_viewtype,
)


@dataclasses.dataclass(frozen=True)
class MetaSnapshot:
    """A designer's cached picture of a library's metadata.

    FMCAD does not push metadata updates (Section 2.2); designers work
    from a snapshot taken at refresh time and are responsible for
    re-refreshing.  ``bench_multiuser`` counts how often stale snapshots
    would have misled a designer.
    """

    library_name: str
    tick: int
    records: Tuple[MetaRecord, ...]

    def is_stale(self, library: "Library") -> bool:
        return self.tick < library.tick

    def versions_of(self, cell: str, view: str) -> List[int]:
        return sorted(
            r.version
            for r in self.records
            if r.cell == cell and r.view == view
        )


def _create_exclusive(path: pathlib.Path, create: Callable[[], None]) -> None:
    """Run *create*, which makes *path* only if nothing is there.

    A file already at a fresh version number is a dead run's leftover
    that no ``.meta`` names.  Only then is it unlinked and *create*
    retried once: writing through it could reach an older version
    sharing its inode.
    """
    try:
        create()
    except FileExistsError:
        path.unlink()
        create()


class Library:
    """One FMCAD library: a directory, its design files, and its ``.meta``."""

    def __init__(
        self,
        name: str,
        root: pathlib.Path,
        clock: Optional[SimClock] = None,
    ) -> None:
        if not name or "/" in name:
            raise LibraryError(f"invalid library name: {name!r}")
        self.name = name
        self.directory = pathlib.Path(root) / name
        durable.make_dirs(self.directory)
        self.clock = clock or SimClock()
        self.metafile = MetaFile(self.directory / ".meta")
        #: versions whose property bag changed since it was last written
        #: (insertion order is the order their lines are written in)
        self._unflushed_props: Dict[CellViewVersion, CellView] = {}
        self._lock = threading.Lock()
        self._cells: Dict[str, Cell] = {}
        #: monotone change counter; bumped on every metadata mutation.
        self.tick = 0
        #: the tick the on-disk ``.meta`` was last written at: it names
        #: exactly the versions whose ``created_tick`` is not above it
        self.flushed_tick = 0
        #: checkins stored as hard links because the data did not change
        self.dedup_links = 0
        #: shared MaterializationCache, if the owning framework attached
        #: one — digest-keyed, so entries interoperate with blob reads
        self.read_cache = None
        #: verified reads served straight from the shared cache
        self.cache_reads = 0

    # -- opening an existing library from disk ----------------------------------

    @classmethod
    def open(
        cls,
        name: str,
        root: pathlib.Path,
        clock: Optional[SimClock] = None,
    ) -> "Library":
        """Rebuild a library's in-memory state from its ``.meta`` file.

        This is what the ``.meta`` file exists *for* (Section 2.2): it
        describes the directory's contents, so a framework restart
        recovers cells, cellviews and versions from it.  Versions written
        but never flushed are invisible after reopening — faithfully: the
        metadata was the designer's responsibility.  Cells come back
        even without a version: ``create_cell`` made their directory,
        and every non-dot directory under the library is a cell.

        Each version gets the last sound property bag written after its
        record.  A torn tail and damaged property lines are left out, and
        the open writes nothing: the next ``.meta`` write cuts or
        replaces them.
        """
        library = cls(name, root, clock=clock)
        for entry in sorted(library.directory.iterdir()):
            if entry.is_dir() and not entry.name.startswith("."):
                library.create_cell(entry.name)
        contents = library.metafile.load()
        for record in sorted(
            contents.records, key=lambda r: (r.cell, r.view, r.version)
        ):
            if not library.has_cell(record.cell):
                library.create_cell(record.cell)
            cell = library.cell(record.cell)
            if not cell.has_cellview(record.view):
                library.create_cellview(
                    record.cell, record.view, record.viewtype
                )
            cellview = cell.cellview(record.view)
            path = (
                library.directory / record.cell / record.view
                / record.filename
            )
            version = CellViewVersion(
                number=record.version,
                path=path,
                created_tick=record.tick,
                author=record.author,
            )
            # the .meta record carries the content address, so reads of
            # this version stay verified across restarts
            version._content_digest = record.digest or None
            version._meta_record = record
            bag = contents.bags.get((record.cell, record.view, record.version))
            for prop, value in (bag or {}).items():
                version.properties.set(prop, value)
            cellview.add_version(version)
            library._track(cellview, version)
        library.tick = library.flushed_tick = contents.tick
        return library

    def orphaned_files(self) -> List[pathlib.Path]:
        """Version files on disk that no record names, and a stale
        ``.meta.tmp``.

        These are the casualties of a run that died after writing its
        version files but before the ``.meta`` that would name them, or
        of designers who forgot to flush before the restart, and of a
        ``.meta`` compaction that died before its rename.  A file the
        in-memory library holds is only waiting for its flush.
        """
        named = {
            (cv.cell_name, cv.view.name, v.path.name)
            for cv in self.cellviews()
            for v in cv.versions
        }
        if self.tick != self.flushed_tick:
            # memory changed since the last flush, so .meta may still
            # name a version memory no longer holds
            named.update(
                (r.cell, r.view, r.filename)
                for r in self.metafile.read()[0]
            )
        orphans: List[pathlib.Path] = []
        # os.scandir, not Path.glob: this runs over every file of every
        # library on each restart, and glob is several times slower
        for cell in os.scandir(self.directory):
            if not cell.is_dir() or cell.name.startswith("."):
                continue
            for view in os.scandir(cell.path):
                if not view.is_dir():
                    continue
                for entry in os.scandir(view.path):
                    filename = entry.name
                    if filename.startswith("v") and filename.endswith(
                        ".dat"
                    ) and (cell.name, view.name, filename) not in named:
                        orphans.append(pathlib.Path(entry.path))
        stale = self.metafile.path.with_name(".meta.tmp")
        if stale.exists():
            orphans.append(stale)
        return sorted(orphans)

    def restorable(self, path: pathlib.Path) -> bool:
        """Would version file *path* extend its cellview's chain?"""
        cell, view = path.parent.parent.name, path.parent.name
        held = self.has_cell(cell) and self.cell(cell).has_cellview(view)
        return not held or int(path.stem[1:]) >= self.cellview(
            cell, view
        ).next_version_number()

    def restore_version(
        self, path: pathlib.Path, digest: str, author: str
    ) -> CellViewVersion:
        """Record the :meth:`orphaned_files` entry *path* as a version.

        The roll-forward of a record ``.meta`` lost while an OMS version
        still names the file: it must be :meth:`restorable`, and
        *digest* is its content address.
        """
        cell, view = path.parent.parent.name, path.parent.name
        if not self.has_cell(cell):
            self.create_cell(cell)
        if not self.cell(cell).has_cellview(view):
            self.create_cellview(cell, view)
        return self._add_version(
            self.cellview(cell, view), int(path.stem[1:]), path, digest,
            path.stat().st_size, author,
        )

    # -- structure -------------------------------------------------------------

    def create_cell(self, name: str) -> Cell:
        """Create the basic logical design object *name*."""
        if name in self._cells:
            raise LibraryError(f"library {self.name!r}: duplicate cell {name!r}")
        if not name or "/" in name or name.startswith("."):
            raise LibraryError(f"invalid cell name: {name!r}")
        cell = Cell(name)
        self._cells[name] = cell
        durable.make_dirs(self.directory / name)
        self._bump()
        return cell

    def cell(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise LibraryError(
                f"library {self.name!r} has no cell {name!r}"
            ) from None

    def has_cell(self, name: str) -> bool:
        return name in self._cells

    def cells(self) -> List[Cell]:
        return [self._cells[name] for name in sorted(self._cells)]

    def create_cellview(
        self, cell_name: str, view_name: str, viewtype_name: Optional[str] = None
    ) -> CellView:
        """Create a cellview of *cell_name* for view *view_name*.

        When *viewtype_name* is omitted the view name doubles as the
        viewtype name (the common FMCAD convention: a view named
        ``schematic`` of viewtype ``schematic``).
        """
        cell = self.cell(cell_name)
        viewtype = resolve_viewtype(viewtype_name or view_name)
        view = View(view_name, viewtype)
        cellview = cell.add_cellview(CellView(cell_name, view))
        durable.make_dirs(self.directory / cell_name / view_name)
        self._bump()
        return cellview

    def cellview(self, cell_name: str, view_name: str) -> CellView:
        return self.cell(cell_name).cellview(view_name)

    def cellviews(self) -> List[CellView]:
        found: List[CellView] = []
        for cell in self.cells():
            found.extend(cell.cellviews())
        return found

    # -- version data -----------------------------------------------------------

    def _version_path(self, cellview: CellView, number: int) -> pathlib.Path:
        return (
            self.directory
            / cellview.cell_name
            / cellview.view.name
            / f"v{number:04d}.dat"
        )

    def write_version(
        self, cellview: CellView, data: bytes, author: str
    ) -> CellViewVersion:
        """Append a new version file for *cellview* with *data*.

        This is the physical half of a checkin; concurrency rules are
        enforced by :class:`~repro.fmcad.checkout.CheckoutManager`, which
        is the only sanctioned caller during design work.

        A checkin whose bytes match the previous version (the tool only
        read the data) is stored as a hard link to the existing file —
        one directory entry, no second copy, per-file overhead only.
        """
        number = cellview.next_version_number()
        path = self._version_path(cellview, number)
        digest = hashlib.sha256(data).hexdigest()
        previous = cellview.default_version
        linked = False
        if (
            previous is not None
            and previous.path.exists()
            and previous.content_digest() == digest
            # never hard-link onto bytes that rotted since their digest
            # was cached: the new version would share the damage.  The
            # re-hash only runs on the dedup-candidate path, so clean
            # checkins of changed data pay nothing extra.
            and hashlib.sha256(previous.path.read_bytes()).hexdigest()
            == digest
        ):
            try:
                _create_exclusive(path, lambda: os.link(previous.path, path))
                linked = True
            except OSError:
                pass  # filesystem without hard links: fall back to a copy
        if linked:
            self.clock.charge_native_io(0, files=1)
            self.dedup_links += 1
        else:
            # version files are immutable once written, so a plain
            # write + fsync suffices — no rename dance needed, but the
            # bytes must be durable before the .meta that references them
            # (a scheduled run defers the fsync past its commit turn; its
            # wave writes the .meta only after every run's fsyncs)
            stored = corruption_point("fmcad.version_file", data)
            _create_exclusive(path, lambda: durable.write_bytes(
                path, stored, deferrable=True, exclusive=True
            ))
            self.clock.charge_native_io(len(data), files=1)
        # the new name, linked or written, must be durable before a
        # .meta names it
        durable.fsync_entry(path)
        return self._add_version(
            cellview, number, path, digest, len(data), author
        )

    def _add_version(
        self,
        cellview: CellView,
        number: int,
        path: pathlib.Path,
        digest: str,
        size: int,
        author: str,
    ) -> CellViewVersion:
        version = CellViewVersion(
            number=number, path=path, created_tick=self.tick + 1, author=author
        )
        version._content_digest = digest
        version._content_size = size
        cellview.add_version(version)
        self._track(cellview, version)
        self._bump()
        return version

    def drop_version(self, cellview: CellView, number: int) -> None:
        """Destroy version *number* of *cellview*: record and file.

        This is the compensating action of crash recovery — FMCAD itself
        never deletes design data.  Only the newest version may be
        dropped, preserving the monotone version chain.  The unlink is a
        directory-entry removal, so hard-link-dedup'd checkins keep the
        shared payload alive for the surviving versions.
        """
        latest = cellview.default_version
        if latest is None or latest.number != number:
            raise LibraryError(
                f"cellview {cellview.name}: can only drop the newest "
                f"version, not {number}"
            )
        version = cellview.remove_version(number)
        with self._lock:
            self._unflushed_props.pop(version, None)
        # records are never un-appended: the next write is a snapshot
        self.metafile.rewrite_next()
        # the crash may have happened before the file landed
        version.path.unlink(missing_ok=True)
        self.clock.charge_native_io(0, files=1)
        self._bump()

    def read_version(
        self, cellview: CellView, number: Optional[int] = None
    ) -> bytes:
        """Read a version's design file (default: the default version)."""
        version = (
            cellview.version(number)
            if number is not None
            else cellview.default_version
        )
        if version is None:
            raise LibraryError(f"cellview {cellview.name} has no versions")
        digest = version._content_digest
        if self.read_cache is not None and digest is not None:
            cached = self.read_cache.get(digest)
            if cached is not None:
                # digest-keyed coherence: the cache only holds bytes that
                # proved this digest, so the verification is already paid
                self.cache_reads += 1
                self.clock.charge_native_io(0, files=1)
                return cached
        data = version.read_data()
        problem = version.classify_damage(data)
        if problem is not None:
            raise IntegrityError(
                f"library {self.name!r}: version file {version.path} "
                f"fails verification ({problem})",
                location=str(version.path),
                classification=problem,
            )
        if self.read_cache is not None and digest is not None:
            self.read_cache.put(digest, data)
        self.clock.charge_native_io(len(data), files=1)
        return data

    # -- .meta maintenance ---------------------------------------------------------

    def _track(self, cellview: CellView, version: CellViewVersion) -> None:
        """Queue *version*'s bag for the next ``.meta`` write on changes."""

        def changed() -> None:
            with self._lock:
                self._unflushed_props[version] = cellview

        version.properties.on_change = changed

    def _bump(self) -> None:
        self.tick += 1

    @staticmethod
    def _record(cellview: CellView, version: CellViewVersion) -> MetaRecord:
        """*version*'s ``.meta`` record, built once and kept on it."""
        if version._meta_record is None:
            version._meta_record = MetaRecord(
                cellview.cell_name, cellview.view.name, cellview.viewtype.name,
                version.number, version.path.name, version.author,
                version.created_tick, version._content_digest or "",
            )
        return version._meta_record

    @staticmethod
    def _bag(cellview: CellView, version: CellViewVersion):
        key = (cellview.cell_name, cellview.view.name, version.number)
        return key, version.properties.as_dict()

    def _named(self, tick: int) -> Tuple[List[MetaRecord], Bags]:
        """Records and non-empty bags of the versions *tick* names."""
        records: List[MetaRecord] = []
        bags: Bags = []
        for cellview in self.cellviews():
            for version in cellview.versions:
                if version.created_tick <= tick:
                    records.append(self._record(cellview, version))
                    if len(version.properties):
                        bags.append(self._bag(cellview, version))
        return records, bags

    def _flush(self, user: str, tick: int, charge: bool) -> bool:
        """Write what ``.meta`` lacks of the versions *tick* names.

        False when the writer lock is held by another user.  A failed
        write puts the bags back, so the next one retries them.
        """
        if not self.metafile.acquire(user):
            return False
        try:
            with self._lock:
                changed = {
                    version: cellview
                    for version, cellview in self._unflushed_props.items()
                    if version.created_tick <= tick
                }
                for version in changed:
                    del self._unflushed_props[version]
            added = [
                self._record(cellview, version)
                for cellview in self.cellviews()
                for version in cellview.versions
                if self.flushed_tick < version.created_tick <= tick
            ]
            try:
                cost = self.metafile.flush(
                    user, tick, added,
                    [self._bag(cv, v) for v, cv in changed.items()],
                    lambda: self._named(tick),
                )
            except BaseException:
                with self._lock:
                    self._unflushed_props = {
                        **changed, **self._unflushed_props
                    }
                raise
            self.flushed_tick = tick
            if charge:
                self.clock.charge_native_io(cost, files=1)
        finally:
            self.metafile.release(user)
        return True

    def flush_meta(self, user: str) -> bool:
        """Write current metadata to ``.meta``; requires the writer lock.

        Returns False when the lock is held by another user (a contention
        event) — the caller must retry, exactly the explicit coordination
        Section 3.1 complains about.  The new version records and every
        changed property bag go out as one appended batch; the clock is
        charged what a whole-file write of the records would cost.
        """
        return self._flush(user, self.tick, charge=True)

    def flush_properties(self, user: str) -> bool:
        """Append the changed bags of versions ``.meta`` already names.

        One batch of property lines only, and no clock charge.
        """
        return not self._unflushed_props or self._flush(
            user, self.flushed_tick, charge=False
        )

    def meta_names(self, version: CellViewVersion) -> bool:
        """Does the last flushed ``.meta`` record *version*?"""
        return version.created_tick <= self.flushed_tick

    def snapshot(self, user: str) -> MetaSnapshot:
        """A designer's refresh: read the on-disk ``.meta``.

        Note this reads what was last *flushed*, not live memory — an
        un-flushed library yields an out-of-date snapshot, reproducing the
        manual-refresh hazard.
        """
        records, tick = self.metafile.read()
        self.clock.charge_native_io(
            sum(len(r.to_line()) for r in records), files=1
        )
        return MetaSnapshot(
            library_name=self.name, tick=tick, records=tuple(records)
        )

    def verify_meta(self) -> List[str]:
        """Compare ``.meta`` against the directory; list discrepancies.

        Used by the Section 3.2 consistency experiment: FMCAD itself never
        runs this automatically.
        """
        problems: List[str] = []
        try:
            on_disk = self.metafile.index()
        except MetaFileError as exc:
            return [f"unreadable .meta: {exc}"]
        live = {
            (r.cell, r.view, r.version): r for r in self._named(self.tick)[0]
        }
        for key in sorted(set(live) - set(on_disk)):
            problems.append(f"missing from .meta: {key[0]}/{key[1]} v{key[2]}")
        for key in sorted(set(on_disk) - set(live)):
            problems.append(f"dangling in .meta: {key[0]}/{key[1]} v{key[2]}")
        for key in sorted(set(on_disk) & set(live)):
            if on_disk[key].filename != live[key].filename:
                problems.append(
                    f"filename mismatch for {key[0]}/{key[1]} v{key[2]}"
                )
        return problems

    # -- storage integrity -----------------------------------------------------------

    def scrub_versions(self) -> List[Tuple[CellViewVersion, str]]:
        """Re-hash every version file; list ``(version, classification)``.

        Only versions with a known content digest can fail.
        """
        findings: List[Tuple[CellViewVersion, str]] = []
        for cellview in self.cellviews():
            for version in cellview.versions:
                problem = version.verify()
                if problem is not None:
                    findings.append((version, problem))
        return findings

    def repair_version(self, version: CellViewVersion, data: bytes) -> None:
        """Overwrite a damaged version file with verified pristine bytes.

        *data* must hash to the version's recorded content address.
        Writing through the existing path also heals every hard link the
        dedup checkin created — the links share one inode, and they were
        all equally damaged.
        """
        expected = version._content_digest
        if expected is None or hashlib.sha256(data).hexdigest() != expected:
            raise IntegrityError(
                f"repair source for {version.path} does not hash to the "
                "recorded content address — refusing to store it",
                location=str(version.path),
                classification="bit-rot",
            )
        version.path.write_bytes(data)
        version._content_size = len(data)

    def verified_version_bytes(self, digest: str) -> Optional[bytes]:
        """Bytes of any version file proving *digest*, else ``None``.

        This is the peer-repair lookup: a corrupt OMS blob can be healed
        from the FMCAD copy of the same payload, but only after that copy
        re-proves its own content address.
        """
        for cellview in self.cellviews():
            for version in cellview.versions:
                if version._content_digest != digest:
                    continue
                try:
                    data = version.path.read_bytes()
                except FileNotFoundError:
                    continue
                if hashlib.sha256(data).hexdigest() == digest:
                    return data
        return None

    # -- statistics ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        cellviews = self.cellviews()
        return {
            "cells": len(self._cells),
            "cellviews": len(cellviews),
            "versions": sum(len(cv.versions) for cv in cellviews),
            "bytes": sum(
                v.size for cv in cellviews for v in cv.versions
            ),
            "dedup_links": self.dedup_links,
            "tick": self.tick,
        }
