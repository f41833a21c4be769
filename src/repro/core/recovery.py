"""Two-phase recovery for interrupted coupled runs.

The coupled protocol touches two systems with very different crash
behaviour.  OMS is transactional: open transactions self-abort when the
failure propagates, so the master's metadata is always consistent after
a crash.  FMCAD is files-and-locks: version files, checkout tickets,
tool sessions and ``.meta`` flushes have no transaction around them, so
a crash leaves whatever half-state the process died in.

The bridge is the **coupling intent**: a durable OMS record
(``CouplingIntent``) journalled by :class:`IntentJournal` *before* the
run performs any cross-framework side effect.  After a crash,
:class:`CouplingRecovery` scans the pending intents and both frameworks
and repairs the slave to match the master:

==========================================  ================================
observed state of an FMCAD version          action
(newer than the intent's recorded base)
==========================================  ================================
``jcf_oid`` tag names a live OMS version    keep — the run got far enough
no/dead tag, but the OMS design object's    roll forward: repair the tag
latest payload digest matches the file      (both writes happened, the
                                            cross-tag was the casualty)
no/dead tag and no matching OMS payload     roll back: drop the FMCAD
                                            version (the OMS import never
                                            committed)
==========================================  ================================

Two more rows cover a scheduled wave, which writes each touched
library's ``.meta`` once after all its runs and then appends one WAL
record for the whole wave — its intents included.  A crash inside the
wave therefore leaves no pending intent to settle:

==========================================  ================================
crash point in the wave                     action
==========================================  ================================
after the version files, before ``.meta``   reclaim: version files no
(no batch appended, or a torn one)          record names are deleted,
                                            unless an OMS version names
                                            them; a torn batch is never
                                            read, and the next write
                                            cuts it
after ``.meta``, before the WAL record      roll back: ``.meta`` names
                                            versions whose ``jcf_oid`` tag
                                            no replayed OMS object backs;
                                            drop them newest-first
==========================================  ================================

Around that core decision, recovery also cancels dangling checkout
tickets, closes leaked tool sessions, fails executions left ``running``,
releases orphaned workspace reservations, reclaims unrecorded staging
files (a crashed scheduled run's staged files among them: they sit in
the one staging root under the run's name prefix, and no record claims
them), and settles every pending intent as ``done`` or ``aborted``.

Recovery assumes a *quiesced* system — it is the restart path, run
before any new coupled work begins, exactly like a database's crash
recovery.  It is idempotent: running it twice, or on a healthy store,
changes nothing (asserted by the test suite via audit + snapshot
equality).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
    INTENT_ABORTED,
    INTENT_DONE,
    INTENT_PENDING,
)
from repro.jcf.project import JCFCellVersion, JCFVariant
from repro.oms.objects import OMSObject

#: author recorded on ``.meta`` flushes performed by recovery
RECOVERY_USER = "recovery"


class IntentJournal:
    """Durable begin/finish records for coupled runs.

    An intent is only worth anything if it survives the crash it is
    meant to describe, so :meth:`begin` refuses to run inside an open
    transaction — an aborting transaction would take the intent with it.
    """

    def __init__(self, db) -> None:
        self._db = db

    def begin(
        self,
        kind: str,
        user: str,
        library: str,
        cell: str,
        activity: str = "",
        execution_oid: str = "",
        variant_oid: str = "",
        fmcad_base: Optional[Sequence[Sequence[Any]]] = None,
        note: str = "",
    ) -> str:
        """Journal a pending intent; returns its oid."""
        if self._db.in_transaction:
            raise CouplingError(
                "intent records must be journalled outside transactions — "
                "an abort would erase the evidence recovery depends on"
            )
        obj = self._db.create(
            "CouplingIntent",
            {
                "kind": kind,
                "state": INTENT_PENDING,
                "user": user,
                "library": library,
                "cell": cell,
                "activity": activity,
                "execution_oid": execution_oid,
                "variant_oid": variant_oid,
                "fmcad_base": [list(pair) for pair in (fmcad_base or [])],
                "started_ms": self._db.clock.now_ms,
                "note": note,
            },
        )
        return obj.oid

    def finish(self, oid: str, state: str, note: str = "") -> None:
        """Settle an intent as ``done`` or ``aborted``."""
        if state not in (INTENT_DONE, INTENT_ABORTED):
            raise CouplingError(f"invalid terminal intent state {state!r}")
        self._db.set_attr(oid, "state", state)
        self._db.set_attr(oid, "finished_ms", self._db.clock.now_ms)
        if note:
            self._db.set_attr(oid, "note", note)

    def pending(self) -> List[OMSObject]:
        return self._db.select(
            "CouplingIntent", lambda o: o.get("state") == INTENT_PENDING
        )

    def all(self) -> List[OMSObject]:
        return self._db.select("CouplingIntent")


@dataclasses.dataclass
class RecoveryReport:
    """Everything one :meth:`CouplingRecovery.recover` pass repaired."""

    completed_intents: List[str] = dataclasses.field(default_factory=list)
    aborted_intents: List[str] = dataclasses.field(default_factory=list)
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
    """Scans intents plus both frameworks; rolls forward or back."""

    def __init__(self, jcf: JCFFramework, fmcad: FMCADFramework) -> None:
        self.jcf = jcf
        self.fmcad = fmcad
        self.intents = IntentJournal(jcf.db)
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
        for intent in self.intents.pending():
            self._recover_intent(intent, report)
        self._sweep_wave_leftovers(report)
        self._sweep_executions(report)
        self._sweep_tickets(report)
        self._sweep_reservations(report)
        self._sweep_flow_instances(report)
        for path in self.jcf.staging.reclaim_orphans():
            report.reclaimed_staging_files.append(path.name)
        self._sweep_wal(report)
        self._sweep_leases(report)
        self._scrub_storage(report)
        return report

    def _sweep_wave_leftovers(self, report: RecoveryReport) -> None:
        """Undo what a wave that died before its WAL record left in FMCAD.

        The record would have held the wave's intents too, so no intent
        describes these leftovers.  Versions ``.meta`` names with a dead
        ``jcf_oid`` tag are dropped (only a chain's newest versions can
        be such leftovers); files no ``.meta`` names are reclaimed, but
        never one an OMS version names.  Intents are settled first, so
        every tag they could repair is.
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

    # -- per-intent repair -----------------------------------------------------

    def _recover_intent(
        self, intent: OMSObject, report: RecoveryReport
    ) -> None:
        library = self._library(intent.get("library"))
        cell_name = intent.get("cell") or ""
        durable_outputs = 0
        touched_library = False

        if library is not None and library.has_cell(cell_name):
            self._cancel_tickets(
                report,
                lambda t: t.library_name == library.name
                and t.cell_name == cell_name,
            )
            base: Dict[str, int] = {
                str(view): int(number)
                for view, number in (intent.get("fmcad_base") or [])
            }
            variant = self._variant(intent.get("variant_oid"))
            for cellview in library.cell(cell_name).cellviews():
                kept, dropped, repaired = self._settle_cellview(
                    library, cellview,
                    base.get(cellview.view.name, 0),
                    variant, report,
                )
                durable_outputs += kept + repaired
                touched_library = touched_library or dropped or repaired

        for session in list(self.fmcad.sessions()):
            if session.user == intent.get("user"):
                self.fmcad.close_session(session.session_id)
                report.closed_sessions.append(session.session_id)

        self._fail_execution(intent.get("execution_oid"), report)

        if touched_library and library is not None:
            # the crash interrupted before (or between) .meta flushes;
            # republish faithful metadata under the recovery identity
            library.flush_meta(RECOVERY_USER)

        if durable_outputs:
            self.intents.finish(
                intent.oid, INTENT_DONE,
                note=f"recovered: {durable_outputs} durable output(s)",
            )
            report.completed_intents.append(intent.oid)
        else:
            self.intents.finish(
                intent.oid, INTENT_ABORTED, note="recovered: rolled back"
            )
            report.aborted_intents.append(intent.oid)

    def _settle_cellview(
        self,
        library: Library,
        cellview,
        base_number: int,
        variant: Optional[JCFVariant],
        report: RecoveryReport,
    ) -> Tuple[int, int, int]:
        """Apply the decision table to every version newer than the base.

        Returns ``(kept, dropped, repaired)`` counts.  Versions are
        settled newest-first because only the newest version of a chain
        can be dropped; the scan stops at the first version it keeps —
        everything older was durable before the crashed run began or was
        kept by an earlier recovery pass.
        """
        kept = dropped = repaired = 0
        dobj = (
            variant.find_design_object(cellview.view.name)
            if variant is not None
            else None
        )
        latest_jcf = dobj.latest_version() if dobj is not None else None
        for version in reversed(list(cellview.versions)):
            if version.number <= base_number:
                break
            tag = version.properties.get("jcf_oid")
            if tag and self.jcf.db.exists(tag):
                kept += 1
                break
            if (
                latest_jcf is not None
                and version.path.exists()
                and latest_jcf.payload_digest == version.content_digest()
            ):
                # both writes landed; only the cross-tag was lost
                version.properties.set("jcf_oid", latest_jcf.oid)
                repaired += 1
                report.repaired_tags.append(
                    f"{library.name}:{cellview.name} v{version.number} -> "
                    f"{latest_jcf.oid}"
                )
                break
            library.drop_version(cellview, version.number)
            dropped += 1
            report.deleted_fmcad_versions.append(
                f"{library.name}:{cellview.name} v{version.number}"
            )
        return kept, dropped, repaired

    # -- generic sweeps --------------------------------------------------------

    def _sweep_executions(self, report: RecoveryReport) -> None:
        """Fail every execution still marked running.

        On a quiesced system a ``running`` execution is always stale —
        including the crash window between ``start_activity`` and the
        intent journal entry, which no intent describes.
        """
        for obj in self.jcf.db.select(
            "ActiveExecVersion", lambda o: o.get("status") == EXEC_RUNNING
        ):
            self._fail_execution(obj.oid, report)

    def _fail_execution(
        self, oid: Optional[str], report: RecoveryReport
    ) -> None:
        if not oid or not self.jcf.db.exists(oid):
            return
        execution = JCFExecution(self.jcf.db, self.jcf.db.get(oid))
        if execution.status != EXEC_RUNNING:
            return
        self.jcf.engine.finish_activity(execution, success=False)
        report.failed_executions.append(oid)

    def _sweep_tickets(self, report: RecoveryReport) -> None:
        """Cancel every remaining ticket: quiesced means none is live."""
        self._cancel_tickets(report, lambda ticket: True)

    def _cancel_tickets(self, report: RecoveryReport, match) -> None:
        for ticket in self.fmcad.checkouts.active_tickets():
            if not match(ticket):
                continue
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

    def _variant(self, oid: Optional[str]) -> Optional[JCFVariant]:
        if not oid or not self.jcf.db.exists(oid):
            return None
        return JCFVariant(self.jcf.db, self.jcf.db.get(oid))
