"""The FMCAD checkout/checkin concurrency model.

Section 2.2: "the concurrent access to a cellview object is controlled by
a checkin/checkout model. ... Only one version of a cellview can be
checked-out at a time.  This means that only one user can change a
cellview at a time.  It is not possible for two users to work on two
different versions of a cellview in parallel."

That single-writer-per-cellview rule — and the lock-wait it induces — is
exactly what the Section 3.1 experiment contrasts with JCF's workspace
reservation, so the manager counts every denied checkout.

The rule is unchanged by when the working copy is made.
:meth:`CheckoutManager.checkout` takes the lock and charges the copy of
the base version at once; the private working file itself is made on
demand, the first time :attr:`CheckoutTicket.working_path` is read.  A
designer editing in place reads it; a coupled run's harvest checks the
tool's bytes straight in and never makes one.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Callable, Dict, List, Optional

from repro.errors import CheckoutError, FMCADError, LockedError
from repro.faults import fault_point
from repro.fmcad.library import Library
from repro.fmcad.objects import CellView, CellViewVersion
from repro.oms.zerocopy import probe_capabilities, reflink_file


@dataclasses.dataclass
class CheckoutTicket:
    """A live checkout: one user's exclusive write claim on a cellview."""

    user: str
    library_name: str
    cell_name: str
    view_name: str
    base_version: Optional[int]
    #: where the working file lives once made (see :attr:`working_path`)
    path: pathlib.Path
    open: bool = True
    #: the version the working file copies, ``None`` for an empty one
    base: Optional[CellViewVersion] = dataclasses.field(
        default=None, repr=False
    )
    #: makes the working file; cleared once it has run
    make_working_file: Optional[Callable[["CheckoutTicket"], None]] = (
        dataclasses.field(default=None, repr=False)
    )

    @property
    def cellview_key(self) -> str:
        return f"{self.library_name}:{self.cell_name}/{self.view_name}"

    @property
    def working_path(self) -> pathlib.Path:
        """The private working file, made on the first read while open."""
        if self.open and self.make_working_file is not None:
            self.make_working_file(self)
            self.make_working_file = None
        return self.path


class CheckoutManager:
    """Enforces the one-checkout-per-cellview rule across a set of libraries."""

    def __init__(
        self,
        workdir: pathlib.Path,
        library_resolver: Optional[Callable[[str], Library]] = None,
    ) -> None:
        self.workdir = pathlib.Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        #: maps a ticket's ``library_name`` back to the Library, so
        #: recovery can cancel tickets it only knows by name
        self._library_resolver = library_resolver
        self._active: Dict[str, CheckoutTicket] = {}
        #: optional commit-time fence installed by a serving layer; called
        #: with (ticket, library) before a checkin writes its version, so
        #: a session whose server-side lease was superseded cannot commit
        self._checkin_guard: Optional[
            Callable[[CheckoutTicket, Library], None]
        ] = None
        #: accounting for bench_multiuser
        self.denied_checkouts = 0
        self.granted_checkouts = 0
        #: working files actually made (a harvest makes none)
        self.working_files = 0
        #: of those, the ones made by reflinking the version file instead
        #: of copying its bytes
        self.cloned_working_files = 0

    def set_checkin_guard(
        self,
        guard: Optional[Callable[[CheckoutTicket, Library], None]],
    ) -> None:
        """Install (or clear) the commit-time fence for served checkins.

        The guard raises to veto the commit *before* any version is
        written — the ticket stays open, the working file survives, and
        the cellview lock is untouched, so the refusal needs no repair.
        """
        self._checkin_guard = guard

    # -- queries ----------------------------------------------------------------

    def holder_of(self, library: Library, cellview: CellView) -> Optional[str]:
        key = f"{library.name}:{cellview.name}"
        ticket = self._active.get(key)
        return ticket.user if ticket else None

    def active_tickets(self) -> List[CheckoutTicket]:
        return [self._active[key] for key in sorted(self._active)]

    # -- protocol ----------------------------------------------------------------

    def checkout(
        self, user: str, library: Library, cell_name: str, view_name: str
    ) -> CheckoutTicket:
        """Take the exclusive write claim on a cellview.

        The copy of the current default version to a private working
        file is charged here; the file is made when the ticket's
        :attr:`~CheckoutTicket.working_path` is first read.  Raises
        :class:`LockedError` when any other user holds the cellview —
        there is no queueing, matching FMCAD's behaviour of simply
        refusing.
        """
        cellview = library.cellview(cell_name, view_name)
        key = f"{library.name}:{cellview.name}"
        existing = self._active.get(key)
        if existing is not None:
            self.denied_checkouts += 1
            library.clock.charge_lock_wait()
            raise LockedError(
                f"cellview {cellview.name} in {library.name} is checked out "
                f"by {existing.user!r}"
            )
        base = cellview.default_version
        copied = 0
        if base is not None:
            try:
                copied = base.path.stat().st_size
            except FileNotFoundError:
                raise FMCADError(
                    f"version file missing: {base.path}"
                ) from None
            if self._reflinks():
                # extents shared copy-on-write: no bytes move, the
                # private inode appears for a metadata-sized cost
                copied = 0
        library.clock.charge_native_io(copied, files=1)
        ticket = CheckoutTicket(
            user=user,
            library_name=library.name,
            cell_name=cell_name,
            view_name=view_name,
            base_version=base.number if base else None,
            path=(
                self.workdir / user / library.name / cell_name
                / f"{view_name}.work"
            ),
            base=base,
            make_working_file=self._make_working_file,
        )
        self._active[key] = ticket
        cellview.locked_by = user
        self.granted_checkouts += 1
        fault_point("checkout.after_grant")
        return ticket

    def checkin(
        self,
        ticket: CheckoutTicket,
        library: Library,
        data: Optional[bytes] = None,
    ) -> CellViewVersion:
        """Commit the working file as a new cellview version and unlock.

        When *data* is given it replaces the working-file content (the
        tool's saved result); otherwise the working file as-is is used.
        """
        self._require_open(ticket)
        cellview = library.cellview(ticket.cell_name, ticket.view_name)
        if cellview.locked_by != ticket.user:
            raise CheckoutError(
                f"checkin by {ticket.user!r} but cellview {cellview.name} "
                f"is locked by {cellview.locked_by!r}"
            )
        if data is None:
            data = ticket.working_path.read_bytes()
        if self._checkin_guard is not None:
            self._checkin_guard(ticket, library)
        version = library.write_version(cellview, data, author=ticket.user)
        # the version file now exists but the ticket is still open — a
        # crash here is the classic half-checkin recovery must repair
        fault_point("checkout.after_checkin")
        self._close(ticket, cellview)
        return version

    def cancel(
        self, ticket: CheckoutTicket, library: Optional[Library] = None
    ) -> None:
        """Abandon a checkout without creating a version.

        *library* may be omitted when the manager was built with a
        library resolver — the failure paths and crash recovery only
        hold the ticket, not the Library object it came from.
        """
        self._require_open(ticket)
        if library is None:
            if self._library_resolver is None:
                raise CheckoutError(
                    f"cancel of {ticket.cellview_key} needs a Library: no "
                    "resolver configured"
                )
            library = self._library_resolver(ticket.library_name)
        cellview = library.cellview(ticket.cell_name, ticket.view_name)
        self._close(ticket, cellview)

    # -- internals ------------------------------------------------------------------

    def _make_working_file(self, ticket: CheckoutTicket) -> None:
        """Copy the ticket's base version to its private working file.

        The copy reflinks the version file where the filesystem can.
        Either way the working file is a private inode, so tool edits
        can never reach back into the library's version file.
        """
        path, base = ticket.path, ticket.base
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            cloned = (
                base is not None
                and self._reflinks()
                and reflink_file(base.path, path)
            )
        except OSError:  # the version file vanished or refused the clone
            cloned = False
        if cloned:
            self.cloned_working_files += 1
        else:
            path.write_bytes(base.read_data() if base is not None else b"")
        self.working_files += 1

    def _reflinks(self) -> bool:
        """Can the filesystem under the working directory reflink?"""
        return probe_capabilities(self.workdir).reflink

    def _require_open(self, ticket: CheckoutTicket) -> None:
        if not ticket.open:
            raise CheckoutError(
                f"ticket for {ticket.cellview_key} is already closed"
            )
        if ticket.cellview_key not in self._active:
            raise CheckoutError(
                f"no active checkout for {ticket.cellview_key}"
            )

    def _close(self, ticket: CheckoutTicket, cellview: CellView) -> None:
        ticket.open = False
        cellview.locked_by = None
        self._active.pop(ticket.cellview_key, None)
        if ticket.make_working_file is None:
            ticket.path.unlink(missing_ok=True)

    # -- statistics -------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "active": len(self._active),
            "granted": self.granted_checkouts,
            "denied": self.denied_checkouts,
            "working_files": self.working_files,
            "cloned_working_files": self.cloned_working_files,
        }
