"""Recovery for interrupted coupled runs: the audit's repairs, applied.

The coupled protocol touches two systems with very different crash
behaviour.  OMS is transactional: open transactions self-abort when the
failure propagates, so the master's metadata is always consistent after
a crash.  FMCAD is files-and-locks: version files, checkout tickets,
tool sessions and ``.meta`` flushes have no transaction around them, so
a crash leaves whatever half-state the process died in.

A run's in-flight record is its JCF execution: ``start_activity``
commits it ``running`` before the run has any FMCAD side effect, with
the run's library and the newest version number of each of the cell's
views at that moment (``fmcad_base``), and ``finish_activity`` settles
it.  On a quiesced system a ``running`` execution names a run a crash
interrupted.  A scheduled wave writes each touched library's ``.meta``
once after all its runs and then appends one WAL record for the whole
wave; a wave that died before that record left no execution behind.

:meth:`CouplingRecovery.recover` runs one
:meth:`~repro.core.consistency.ConsistencyGuard.audit` and applies the
rule each finding names to the item it names, rule by rule: the WAL's
torn tail first (every later repair that writes OMS appends to the
log), then versions, executions, sessions, tickets, reservations,
flows, staging files, leases, unrecorded FMCAD files, and last the
scrub's repair loop.  It searches for nothing itself, so it repairs
exactly what the audit lists.  The audit's version walk decides which
version without a live ``jcf_oid`` tag is dropped, given its tag back
or only noted.  Noted findings — a version written through FMCAD
directly, a dead-lettered flow, a payload refcount mismatch — have no
rule and stay listed.

Recovery assumes a *quiesced* system — it is the restart path, run
before any new coupled work begins, exactly like a database's crash
recovery.  It is idempotent: running it twice, or on a healthy store,
changes nothing (asserted by the test suite via audit + snapshot
equality).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List

from repro.core.consistency import DROP, ConsistencyGuard
from repro.errors import CouplingError, FMCADError, LibraryError
from repro.integrity.scrub import QUARANTINED, REPAIRED
from repro.jcf.flow_engine import JCFExecution
from repro.jcf.model import FLOW_ABORTED

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
    """Repairs what one audit of the coupling finds, rule by rule."""

    def __init__(self, guard: ConsistencyGuard) -> None:
        self.guard = guard
        self.jcf = guard.jcf
        self.fmcad = guard.fmcad

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
        items: Dict[str, List[Any]] = {}
        for finding in self.guard.audit().findings:
            if finding.rule is not None:
                items.setdefault(finding.rule, []).append(finding.item)
        # first: every repair below that writes OMS appends to the log;
        # one repair cuts the torn tails of the live log and the pack
        if "cut-wal-tail" in items:
            report.wal_repairs.extend(self.jcf.wal.repair())
        self._settle_versions(items.get("settle-version", []), report)
        for obj in items.get("fail-execution", []):
            self.jcf.engine.finish_activity(
                JCFExecution(self.jcf.db, obj), success=False
            )
            report.failed_executions.append(obj.oid)
        for session in items.get("close-session", []):
            self.fmcad.close_session(session.session_id)
            report.closed_sessions.append(session.session_id)
        for ticket in items.get("cancel-ticket", []):
            try:
                self.fmcad.checkouts.cancel(ticket)
            except (FMCADError, LibraryError):  # pragma: no cover - defensive
                continue
            report.cancelled_tickets.append(
                f"{ticket.cellview_key} ({ticket.user})"
            )
        for workspace, cell_version in items.get("release-reservation", []):
            self.jcf.db.unlink("reserves", workspace.oid, cell_version.oid)
            reason = (
                "published" if cell_version.published else "unknown owner"
            )
            report.released_reservations.append(
                f"{workspace.get('owner')}: cell version "
                f"{cell_version.number} of {cell_version.cell.name!r} "
                f"({reason})"
            )
        self._settle_flows(items.get("settle-flow", []), report)
        # the bytes are all safely in OMS: the files are pure waste
        for path in items.get("reclaim-staging-file", []):
            path.unlink(missing_ok=True)
            report.reclaimed_staging_files.append(path.name)
        if "reclaim-lease" in items:
            # every expired lease on a quiesced system belongs to a session
            # that will never heartbeat again; reclaimed here, a restarted
            # server grants successors at once instead of waiting for the
            # first pump to notice.  As of the latest listed expiry, the
            # reclaim takes exactly the listed leases.
            latest = max(lease.expires_ms for lease in items["reclaim-lease"])
            for lease in self.jcf.db.lease_table.reclaim_due(latest):
                report.reclaimed_leases.append(
                    f"{lease.key} (session {lease.session_id}, "
                    f"token {lease.token})"
                )
        # nothing refers to them, and no OMS version names them
        for path, name in items.get("reclaim-fmcad-file", []):
            path.unlink(missing_ok=True)
            report.reclaimed_fmcad_files.append(name)
        # last: leave a fully *verified* store, not just a consistent one.
        # The scrub heals at-rest damage from verified peer copies,
        # starting from the audit's scrub findings, and quarantines what
        # has no surviving peer, so no later read is served the damage
        scrubbed = self.guard.scrubber.repair(items.get("scrub", []))
        for finding in scrubbed.findings:
            if finding.action == REPAIRED:
                report.repaired_payloads.append(str(finding))
            elif finding.action == QUARANTINED:
                report.quarantined_payloads.append(str(finding))
        return report

    def _settle_versions(
        self, versions: List[Any], report: RecoveryReport
    ) -> None:
        """Drop or retag each version, newest first per cellview, then
        flush ``.meta`` once per touched library."""
        touched = {}
        for library, cellview, version, settle in versions:
            touched[library.name] = library
            where = f"{library.name}:{cellview.name} v{version.number}"
            if settle == DROP:
                library.drop_version(cellview, version.number)
                report.deleted_fmcad_versions.append(where)
            else:
                version.properties.set("jcf_oid", settle)
                report.repaired_tags.append(f"{where} -> {settle}")
        for library in touched.values():
            library.flush_meta(RECOVERY_USER)

    def _settle_flows(self, flows: List[Any], report: RecoveryReport) -> None:
        """Adopt each stranded flow instance back to ``queued``, for
        ``resume_pending()`` to roll forward from its last durably
        completed activity (the failed execution makes the re-run
        admissible); compensate to ``aborted`` each one whose variant is
        gone."""
        db = self.jcf.db
        for obj, status in flows:
            db.set_attr(obj.oid, "status", status)
            if status == FLOW_ABORTED:
                db.set_attr(
                    obj.oid, "note",
                    "compensated by recovery: design context is gone",
                )
                report.compensated_flows.append(obj.oid)
            else:
                report.adopted_flows.append(obj.oid)
            db.set_attr(obj.oid, "updated_ms", db.clock.now_ms)
