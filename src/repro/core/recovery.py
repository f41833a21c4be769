"""Recovery for interrupted coupled runs.

The coupled protocol touches two systems with very different crash
behaviour.  OMS is transactional: open transactions self-abort when the
failure propagates, so the master's metadata is always consistent after
a crash.  FMCAD is files-and-locks: version files, checkout tickets,
tool sessions and ``.meta`` flushes have no transaction around them, so
a crash leaves whatever half-state the process died in.

A run's in-flight record is its JCF execution: ``start_activity``
commits it ``running`` before the run has any FMCAD side effect, with
the run's library and the newest version number of each of the cell's
views at that moment, and ``finish_activity`` settles it.  On a
quiesced system a ``running`` execution names a run a crash
interrupted.  :class:`CouplingRecovery` finds that run's cell
(execution, variant, cell) and walks each of its cellviews
newest-first, never below the version that was newest when the run
started: older versions, tagged or not, are not the run's.  A
scheduled wave writes each touched library's ``.meta`` once after all
its runs and then appends one WAL record for the whole wave; a wave
that died before that record left no execution behind, so two more
rows cover it:

==========================================  ================================
observed state                              action
==========================================  ================================
**cell of a running execution**, version    keep, and stop the walk: it
no newer than the view's newest when the    predates the run (a version
run started                                 written through FMCAD directly
                                            stays, for the audit to name)
... version's ``jcf_oid`` tag names a       keep, and stop the walk: the
live OMS version                            run got far enough
... no live tag, but an OMS version names   roll forward: give the tag back
the file (``directory_path``) and holds     (both writes happened, the
the same payload                            cross-tag was the casualty)
... no live tag, no such OMS version        roll back: drop the FMCAD
                                            version (the OMS import never
                                            committed)
**wave** died after its version files,      reclaim: version files no
before ``.meta`` (no batch appended, or     record names are deleted,
a torn one)                                 unless an OMS version names
                                            them; a torn batch is never
                                            read, and the next write
                                            cuts it
**wave** died after ``.meta``, before the   roll back: ``.meta`` names
WAL record                                  versions whose ``jcf_oid`` tag
                                            no replayed OMS object backs;
                                            drop them newest-first
==========================================  ================================

Around that core decision, recovery also fails executions left
``running``, closes every tool session, cancels dangling checkout
tickets, releases orphaned workspace reservations and reclaims
unrecorded staging files (a crashed scheduled run's staged files among
them: they sit in the one staging root under the run's name prefix,
and no record claims them).

Recovery assumes a *quiesced* system — it is the restart path, run
before any new coupled work begins, exactly like a database's crash
recovery.  It is idempotent: running it twice, or on a healthy store,
changes nothing (asserted by the test suite via audit + snapshot
equality).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    CouplingError,
    FMCADError,
    LibraryError,
    MetaFileError,
)
from repro.fmcad.framework import FMCADFramework
from repro.fmcad.library import Library
from repro.integrity.scrub import Scrubber
from repro.jcf.flow_engine import JCFExecution
from repro.jcf.framework import JCFFramework
from repro.jcf.model import (
    EXEC_RUNNING,
    FLOW_ABORTED,
    FLOW_QUEUED,
    FLOW_RUNNING,
    FLOW_TERMINAL_STATES,
)
from repro.jcf.project import JCFCellVersion

#: author recorded on ``.meta`` flushes performed by recovery
RECOVERY_USER = "recovery"


@dataclasses.dataclass
class RecoveryReport:
    """Everything one :meth:`CouplingRecovery.recover` pass repaired."""

    cancelled_tickets: List[str] = dataclasses.field(default_factory=list)
    deleted_fmcad_versions: List[str] = dataclasses.field(default_factory=list)
    repaired_tags: List[str] = dataclasses.field(default_factory=list)
    closed_sessions: List[str] = dataclasses.field(default_factory=list)
    failed_executions: List[str] = dataclasses.field(default_factory=list)
    released_reservations: List[str] = dataclasses.field(default_factory=list)
    reclaimed_staging_files: List[str] = dataclasses.field(default_factory=list)
    #: version files a crash left that no ``.meta`` names
    reclaimed_fmcad_files: List[str] = dataclasses.field(default_factory=list)
    #: corrupt payloads healed from verified peer copies (integrity scrub)
    repaired_payloads: List[str] = dataclasses.field(default_factory=list)
    #: unrepairable payloads taken out of service, never to be read again
    quarantined_payloads: List[str] = dataclasses.field(default_factory=list)
    #: write-ahead-log repairs (torn tails dropped after a crash mid-append)
    wal_repairs: List[str] = dataclasses.field(default_factory=list)
    #: stranded flow instances re-queued for resume (crash mid-flow)
    adopted_flows: List[str] = dataclasses.field(default_factory=list)
    #: flow instances whose design context is gone; parked as aborted
    compensated_flows: List[str] = dataclasses.field(default_factory=list)
    #: expired checkout leases reclaimed from dead served sessions
    reclaimed_leases: List[str] = dataclasses.field(default_factory=list)

    def empty(self) -> bool:
        return not any(
            getattr(self, field.name) for field in dataclasses.fields(self)
        )

    def summary(self) -> str:
        if self.empty():
            return "recovery: nothing to repair"
        lines = ["recovery:"]
        for field in dataclasses.fields(self):
            items = getattr(self, field.name)
            if items:
                label = field.name.replace("_", " ")
                lines.append(f"  {label}: {len(items)}")
                for item in items:
                    lines.append(f"    - {item}")
        return "\n".join(lines)


class CouplingRecovery:
    """Settles the runs left running, then sweeps both frameworks."""

    def __init__(self, jcf: JCFFramework, fmcad: FMCADFramework) -> None:
        self.jcf = jcf
        self.fmcad = fmcad
        self.scrubber = Scrubber(jcf, fmcad)

    # -- the recovery pass -----------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Repair every trace of interrupted coupled runs.

        Must run on a quiesced system (no coupled run in flight) and
        outside any transaction — the repairs themselves must be as
        durable as the damage.
        """
        if self.jcf.db.in_transaction:
            raise CouplingError("recovery cannot run inside a transaction")
        report = RecoveryReport()
        self._settle_running_cells(report)
        self._sweep_executions(report)
        self._sweep_sessions(report)
        self._sweep_wave_leftovers(report)
        self._sweep_tickets(report)
        self._sweep_reservations(report)
        self._sweep_flow_instances(report)
        for path in self.jcf.staging.reclaim_orphans():
            report.reclaimed_staging_files.append(path.name)
        self._sweep_wal(report)
        self._sweep_leases(report)
        self._scrub_storage(report)
        return report

    def _settle_running_cells(self, report: RecoveryReport) -> None:
        """Keep, retag or drop the versions each running run could have made.

        Each cellview of a running cell is walked newest-first down to
        the version that was newest when the run started, stopping early
        at a version with a live ``jcf_oid`` tag.  One that an OMS
        version names by ``directory_path`` with the same payload gets
        its tag back (the scrubber's lost-tag rule) and ends the walk;
        any other is dropped.  The OMS versions are read only when a
        walk is non-empty.
        """
        walks = []
        for library, cell_name, bases in self._running_cells():
            for cellview in library.cell(cell_name).cellviews():
                floor = min(
                    base.get(cellview.view.name, 0) for base in bases
                )
                newest = []
                for version in reversed(list(cellview.versions)):
                    tag = version.properties.get("jcf_oid")
                    if version.number <= floor or (
                        tag and self.jcf.db.exists(tag)
                    ):
                        break
                    newest.append(version)
                if newest:
                    walks.append((library, cellview, newest))
        named = self.scrubber.oms_names({
            str(version.path): version
            for _library, _cellview, newest in walks
            for version in newest
        })
        touched: Dict[str, Library] = {}
        for library, cellview, newest in walks:
            touched[library.name] = library
            for version in newest:
                where = f"{library.name}:{cellview.name} v{version.number}"
                oid = named.get(str(version.path))
                if oid is not None:
                    version.properties.set("jcf_oid", oid)
                    report.repaired_tags.append(f"{where} -> {oid}")
                    break
                library.drop_version(cellview, version.number)
                report.deleted_fmcad_versions.append(where)
        for library in touched.values():
            library.flush_meta(RECOVERY_USER)

    def _running_cells(
        self,
    ) -> List[Tuple[Library, str, List[Dict[str, int]]]]:
        """``(library, cell name, per-view bases)`` of each running cell.

        One base per running execution in the cell: the newest version
        number of each view when it started (a view absent had none).
        An execution without a library is no coupled run and names no
        FMCAD state.
        """
        db = self.jcf.db
        cells: Dict[
            Tuple[str, str], Tuple[Library, str, List[Dict[str, int]]]
        ] = {}
        for obj in db.select(
            "ActiveExecVersion", lambda o: o.get("status") == EXEC_RUNNING
        ):
            library = self._library(obj.get("library"))
            cell_name = JCFExecution(db, obj).variant.cell_version.cell.name
            if library is None or not library.has_cell(cell_name):
                continue
            _, _, bases = cells.setdefault(
                (library.name, cell_name), (library, cell_name, [])
            )
            bases.append({
                str(view): int(number)
                for view, number in obj.get("fmcad_base") or []
            })
        return list(cells.values())

    def _sweep_wave_leftovers(self, report: RecoveryReport) -> None:
        """Undo what a wave that died before its WAL record left in FMCAD.

        The record would have held the wave's executions too, so none is
        left running to describe these leftovers.  Versions ``.meta``
        names with a dead ``jcf_oid`` tag are dropped (only a chain's
        newest versions can be such leftovers); files no ``.meta`` names
        are reclaimed, but never one an OMS version names.  The running
        cells are settled first, so every tag they could repair is.
        """
        libraries, _unopenable = self.fmcad.all_libraries()
        for library in libraries:
            dropped = False
            for cellview in library.cellviews():
                for version in reversed(list(cellview.versions)):
                    tag = version.properties.get("jcf_oid")
                    if not tag or self.jcf.db.exists(tag):
                        break
                    library.drop_version(cellview, version.number)
                    dropped = True
                    report.deleted_fmcad_versions.append(
                        f"{library.name}:{cellview.name} v{version.number}"
                    )
            if dropped:
                library.flush_meta(RECOVERY_USER)
            try:
                reclaimed = library.reclaim_orphans(keep=lambda: {
                    obj.get("directory_path")
                    for obj in self.jcf.db.select("DesignObjectVersion")
                })
            except MetaFileError:
                continue  # a damaged .meta is the storage scrub's finding
            for path in reclaimed:
                report.reclaimed_fmcad_files.append(
                    str(path.relative_to(library.directory.parent))
                )

    def _sweep_flow_instances(self, report: RecoveryReport) -> None:
        """Adopt or compensate flow instances a crash stranded.

        On a quiesced system a ``running`` instance is a lie — the
        process driving it is dead.  If its variant (the design context
        every later step needs) still resolves, the instance is adopted
        back to ``queued`` so ``resume_pending()`` can roll it forward
        from its last durably-completed activity; an instance whose
        variant is gone can never make progress, so it is compensated to
        the terminal ``aborted`` state instead of haunting the queue.
        The executions sweep above has already failed the interrupted
        activity execution, which is exactly what makes the re-run
        admissible under the flow engine's ordering rules.
        """
        db = self.jcf.db
        for obj in db.select("FlowInstance"):
            status = obj.get("status")
            if status in FLOW_TERMINAL_STATES:
                continue
            variant_oid = obj.get("variant_oid") or ""
            try:
                db.get(variant_oid)
                context_alive = True
            except Exception:
                context_alive = False
            if not context_alive:
                db.set_attr(obj.oid, "status", FLOW_ABORTED)
                db.set_attr(
                    obj.oid, "note",
                    "compensated by recovery: design context is gone",
                )
                db.set_attr(obj.oid, "updated_ms", db.clock.now_ms)
                report.compensated_flows.append(obj.oid)
            elif status == FLOW_RUNNING:
                db.set_attr(obj.oid, "status", FLOW_QUEUED)
                db.set_attr(obj.oid, "updated_ms", db.clock.now_ms)
                report.adopted_flows.append(obj.oid)

    def _sweep_wal(self, report: RecoveryReport) -> None:
        """Drop the live log's torn tail (a crash mid-append leaves one).

        Reopen-time recovery (``WriteAheadLog.recover``) already repairs
        the tail it replays over; this sweep covers recovery runs on an
        environment that was *not* rebuilt through reopen — the repair
        is idempotent either way.  Damage that is not a tail problem is
        left in place for the audit to report.
        """
        wal = getattr(self.jcf.db, "wal", None)
        if wal is None:
            return
        report.wal_repairs.extend(wal.repair())

    def _sweep_leases(self, report: RecoveryReport) -> None:
        """Reclaim expired checkout leases from dead served sessions.

        The lease table is an optional attachment (a serving engine
        publishes it the same way WAL persistence publishes ``db.wal``).
        On a quiesced system every expired lease belongs to a session
        that will never heartbeat again; reclaiming here means a
        restarted server grants successors immediately instead of
        waiting for the first pump to notice.
        """
        table = getattr(self.jcf.db, "lease_table", None)
        if table is None:
            return
        for lease in table.reclaim_due():
            report.reclaimed_leases.append(
                f"{lease.key} (session {lease.session_id}, "
                f"token {lease.token})"
            )

    def _scrub_storage(self, report: RecoveryReport) -> None:
        """Leave a fully *verified* store, not just a consistent one.

        The structural sweeps above repair what crashed runs broke; this
        final pass re-verifies every stored payload and heals at-rest
        corruption from verified peer copies (see
        :class:`repro.integrity.scrub.Scrubber`).  Whatever has no
        surviving peer is quarantined so no later read can ever be
        served the damage silently.
        """
        scrub = self.scrubber.scrub(repair=True)
        for finding in scrub.findings:
            if finding.action == "repaired":
                report.repaired_payloads.append(str(finding))
            elif finding.action == "quarantined":
                report.quarantined_payloads.append(str(finding))

    # -- generic sweeps --------------------------------------------------------

    def _sweep_executions(self, report: RecoveryReport) -> None:
        """Fail every execution still marked running.

        On a quiesced system a ``running`` execution is always stale;
        its cell was settled first.
        """
        db = self.jcf.db
        for obj in db.select(
            "ActiveExecVersion", lambda o: o.get("status") == EXEC_RUNNING
        ):
            self.jcf.engine.finish_activity(
                JCFExecution(db, obj), success=False
            )
            report.failed_executions.append(obj.oid)

    def _sweep_sessions(self, report: RecoveryReport) -> None:
        """Close every tool session: quiesced means none is live."""
        for session in list(self.fmcad.sessions()):
            self.fmcad.close_session(session.session_id)
            report.closed_sessions.append(session.session_id)

    def _sweep_tickets(self, report: RecoveryReport) -> None:
        """Cancel every remaining ticket: quiesced means none is live."""
        for ticket in self.fmcad.checkouts.active_tickets():
            try:
                self.fmcad.checkouts.cancel(ticket)
            except (FMCADError, LibraryError):  # pragma: no cover - defensive
                continue
            report.cancelled_tickets.append(
                f"{ticket.cellview_key} ({ticket.user})"
            )

    def _sweep_reservations(self, report: RecoveryReport) -> None:
        """Release reservations that can no longer be legitimate.

        A ``reserves`` link is orphaned when its target cell version is
        already published (publish releases atomically, so this only
        happens when the protocol was bypassed) or when its workspace's
        owner is no longer a registered user.
        """
        db = self.jcf.db
        for workspace in db.select("Workspace"):
            owner = workspace.get("owner")
            owner_known = True
            try:
                self.jcf.resources.user(owner)
            except Exception:
                owner_known = False
            for cv_oid in list(db.target_oids("reserves", workspace.oid)):
                cell_version = JCFCellVersion(db, db.get(cv_oid))
                if owner_known and not cell_version.published:
                    continue
                db.unlink("reserves", workspace.oid, cv_oid)
                reason = (
                    "published" if cell_version.published else "unknown owner"
                )
                report.released_reservations.append(
                    f"{owner}: cell version {cell_version.number} of "
                    f"{cell_version.cell.name!r} ({reason})"
                )

    # -- internals -------------------------------------------------------------

    def _library(self, name: Optional[str]) -> Optional[Library]:
        if not name:
            return None
        try:
            return self.fmcad.library(name)
        except LibraryError:
            if name in self.fmcad.known_library_names():
                return self.fmcad.open_library(name)
            return None
