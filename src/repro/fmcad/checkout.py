"""The FMCAD checkout/checkin concurrency model.

Section 2.2: "the concurrent access to a cellview object is controlled by
a checkin/checkout model. ... Only one version of a cellview can be
checked-out at a time.  This means that only one user can change a
cellview at a time.  It is not possible for two users to work on two
different versions of a cellview in parallel."

That single-writer-per-cellview rule — and the lock-wait it induces — is
exactly what the Section 3.1 experiment contrasts with JCF's workspace
reservation, so the manager counts every denied checkout.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
from typing import Callable, Dict, List, Optional

from repro.errors import CheckoutError, LockedError
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
    working_path: pathlib.Path
    open: bool = True

    @property
    def cellview_key(self) -> str:
        return f"{self.library_name}:{self.cell_name}/{self.view_name}"


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
        #: leftover working files revalidated by digest instead of re-copied
        self.validated_working_files = 0
        #: working files materialised by reflinking the version file
        #: instead of copying its bytes
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

        The current default version is copied to a private working file.
        Raises :class:`LockedError` when any other user holds the
        cellview — there is no queueing, matching FMCAD's behaviour of
        simply refusing.
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
        working_path = (
            self.workdir / user / library.name / cell_name / f"{view_name}.work"
        )
        working_path.parent.mkdir(parents=True, exist_ok=True)
        if base is not None:
            # a leftover working file (e.g. from a crashed session) whose
            # digest still matches the base version needs no re-copy
            if (
                working_path.exists()
                and hashlib.sha256(working_path.read_bytes()).hexdigest()
                == base.content_digest()
            ):
                library.clock.charge_native_io(0, files=1)
                self.validated_working_files += 1
            elif self._reflink_working_file(base, working_path):
                # extents shared copy-on-write: no bytes moved, the
                # private inode appears for a metadata-sized cost
                library.clock.charge_native_io(0, files=1)
                self.cloned_working_files += 1
            else:
                data = base.read_data()
                working_path.write_bytes(data)
                library.clock.charge_native_io(len(data), files=1)
        else:
            working_path.write_bytes(b"")
            library.clock.charge_native_io(0, files=1)
        ticket = CheckoutTicket(
            user=user,
            library_name=library.name,
            cell_name=cell_name,
            view_name=view_name,
            base_version=base.number if base else None,
            working_path=working_path,
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

    def _reflink_working_file(
        self, base: CellViewVersion, working_path: pathlib.Path
    ) -> bool:
        """Reflink the base version file onto the working path.

        Returns ``False`` when the caller should fall back to the
        read+write copy — the version file is missing or the filesystem
        cannot reflink.  The working file always lands on a private
        inode, so tool edits can never reach back into the library's
        version file.
        """
        if not base.path.exists():
            return False
        if not probe_capabilities(self.workdir).reflink:
            return False
        try:
            return reflink_file(base.path, working_path)
        except OSError:  # pragma: no cover - clone refused mid-flight
            return False

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
        if ticket.working_path.exists():
            ticket.working_path.unlink()

    # -- statistics -------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "active": len(self._active),
            "granted": self.granted_checkouts,
            "denied": self.denied_checkouts,
            "validated_working_files": self.validated_working_files,
            "cloned_working_files": self.cloned_working_files,
        }
