"""FMCAD libraries: UNIX directories of design files plus one ``.meta``.

The library is the unit of design-data storage in FMCAD (Section 2.2) —
there is no common database.  Version files are real files under the
library directory; metadata lives in the single ``.meta`` file and in
memory, and the two are reconciled only when a designer refreshes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pathlib
from typing import Dict, List, Optional, Tuple

from repro.clock import SimClock
from repro.errors import IntegrityError, LibraryError, MetaFileError
from repro.faults import corruption_point
from repro.fmcad.metafile import MetaFile, MetaRecord
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
        self.directory.mkdir(parents=True, exist_ok=True)
        self.clock = clock or SimClock()
        self.metafile = MetaFile(self.directory / ".meta")
        self._cells: Dict[str, Cell] = {}
        #: monotone change counter; bumped on every metadata mutation.
        self.tick = 0
        #: the tick the on-disk ``.meta`` was last written at: it names
        #: exactly the versions whose ``created_tick`` is not above it
        self.flushed_tick = 0
        #: checkins stored as hard links because the data did not change
        self.dedup_links = 0
        #: every read_version re-digests the file against the recorded
        #: content address; ``False`` is the unverified benchmark arm
        self.verify_reads = True
        #: shared MaterializationCache, if the owning framework attached
        #: one — digest-keyed, so entries interoperate with blob reads
        self.read_cache = None
        #: verified reads served straight from the shared cache
        self.cache_reads = 0
        # a crash between the .meta temp write and its atomic rename
        # leaves a stale .meta.tmp behind; it is never valid data
        stale = self.directory / ".meta.tmp"
        try:
            stale.unlink()
        except FileNotFoundError:
            pass

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
        """
        library = cls(name, root, clock=clock)
        for entry in sorted(library.directory.iterdir()):
            if entry.is_dir() and not entry.name.startswith("."):
                library.create_cell(entry.name)
        records, tick = library.metafile.read()
        for record in sorted(
            records, key=lambda r: (r.cell, r.view, r.version)
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
            if record.digest:
                # the .meta record carries the content address, so reads
                # of this version stay verified across restarts
                version._content_digest = record.digest
            cellview.add_version(version)
        library.tick = library.flushed_tick = tick
        return library

    def orphaned_files(self) -> List[pathlib.Path]:
        """Version files on disk that ``.meta`` does not describe.

        These are the casualties of designers who forgot to flush before
        the restart — listed so an administrator can recover them.
        """
        described = {
            (r.cell, r.view, r.filename) for r in self.metafile.read()[0]
        }
        orphans: List[pathlib.Path] = []
        for data_file in sorted(self.directory.glob("*/*/v*.dat")):
            view_dir = data_file.parent
            key = (view_dir.parent.name, view_dir.name, data_file.name)
            if key not in described:
                orphans.append(data_file)
        return orphans

    def reclaim_orphans(self) -> List[pathlib.Path]:
        """Delete version files and sidecars no record names; list them.

        A run that dies after writing its version files but before the
        ``.meta`` that would name them leaves both behind.  Nothing
        refers to them (the OMS side of that run never reached the log
        either), so recovery reclaims them.  A file the in-memory library
        still holds is kept: it is only waiting for its flush.
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
        reclaimed: List[pathlib.Path] = []
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
                    if filename.endswith(".props"):
                        filename = filename[: -len(".props")]
                    if not (
                        filename.startswith("v") and filename.endswith(".dat")
                    ) or (cell.name, view.name, filename) in named:
                        continue
                    os.unlink(entry.path)
                    reclaimed.append(pathlib.Path(entry.path))
        return sorted(reclaimed)

    # -- structure -------------------------------------------------------------

    def create_cell(self, name: str) -> Cell:
        """Create the basic logical design object *name*."""
        if name in self._cells:
            raise LibraryError(f"library {self.name!r}: duplicate cell {name!r}")
        if not name or "/" in name or name.startswith("."):
            raise LibraryError(f"invalid cell name: {name!r}")
        cell = Cell(name)
        self._cells[name] = cell
        (self.directory / name).mkdir(exist_ok=True)
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
        (self.directory / cell_name / view_name).mkdir(parents=True, exist_ok=True)
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
        # a file already at a fresh number is a dead run's leftover that
        # no .meta names: unlink it rather than write through it (it may
        # share an inode with an older version) or let the new version
        # load its sidecar's stale jcf_oid
        for leftover in (path, path.with_name(path.name + ".props")):
            leftover.unlink(missing_ok=True)
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
                os.link(previous.path, path)
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
            durable.write_bytes(
                path, corruption_point("fmcad.version_file", data)
            )
            self.clock.charge_native_io(len(data), files=1)
        version = CellViewVersion(
            number=number, path=path, created_tick=self.tick + 1, author=author
        )
        version._content_digest = digest
        version._content_size = len(data)
        cellview.add_version(version)
        self._bump()
        return version

    def drop_version(self, cellview: CellView, number: int) -> None:
        """Destroy version *number* of *cellview*: record, file, sidecar.

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
        try:
            version.path.unlink()
        except FileNotFoundError:
            pass  # the crash may have happened before the file landed
        sidecar = version.path.with_name(version.path.name + ".props")
        try:
            sidecar.unlink()
        except FileNotFoundError:
            pass
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
        if (
            self.verify_reads
            and self.read_cache is not None
            and digest is not None
        ):
            cached = self.read_cache.get(digest)
            if cached is not None:
                # digest-keyed coherence: the cache only holds bytes that
                # proved this digest, so the verification is already paid
                self.cache_reads += 1
                self.clock.charge_native_io(0, files=1)
                return cached
        data = version.read_data()
        if self.verify_reads:
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

    def _bump(self) -> None:
        self.tick += 1

    def meta_records(self) -> List[MetaRecord]:
        """The records a faithful ``.meta`` of current state would hold."""
        records: List[MetaRecord] = []
        for cellview in self.cellviews():
            for version in cellview.versions:
                records.append(
                    MetaRecord(
                        cell=cellview.cell_name,
                        view=cellview.view.name,
                        viewtype=cellview.viewtype.name,
                        version=version.number,
                        filename=version.path.name,
                        author=version.author,
                        tick=version.created_tick,
                        digest=version._content_digest or "",
                    )
                )
        return records

    def flush_meta(self, user: str) -> bool:
        """Write current metadata to ``.meta``; requires the writer lock.

        Returns False when the lock is held by another user (a contention
        event) — the caller must retry, exactly the explicit coordination
        Section 3.1 complains about.
        """
        if not self.metafile.acquire(user):
            return False
        try:
            tick = self.tick
            written = self.metafile.write(self.meta_records(), tick, user)
            self.flushed_tick = tick
            self.clock.charge_native_io(written, files=1)
        finally:
            self.metafile.release(user)
        return True

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
            (r.cell, r.view, r.version): r for r in self.meta_records()
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

        Only versions with a known content digest can fail — a version
        reconstructed from a pre-digest ``.meta`` record has nothing to
        be held against and is reported clean.
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
