"""The coupling's consistency guard.

Section 2.4: "The customization of the encapsulation was extended by
several extension language procedures to trigger functions and lock menu
points in order to prevent data inconsistency."  The guard here is
written *in* the FMCAD extension language (menu locking), installs an ITC
interceptor (wrapper mediation), and provides the cross-checks that make
the hybrid framework's "more powerful data consistency check" (Section
3.2) measurable.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.core.hierarchy import HierarchyManager
from repro.errors import IntegrityError
from repro.integrity.scrub import Scrubber
from repro.core.mapping import DataModelMapper
from repro.fmcad.framework import FMCADFramework
from repro.fmcad.itc import ITCMessage
from repro.fmcad.library import Library
from repro.fmcad.session import ToolSession
from repro.jcf.framework import JCFFramework
from repro.jcf.model import (
    EXEC_RUNNING,
    FLOW_DEAD_LETTER,
    FLOW_RUNNING,
    FLOW_TERMINAL_STATES,
)
from repro.jcf.project import JCFCellVersion, JCFProject

#: Menu points the guard locks in every coupled tool session: versioning
#: and hierarchy manipulation belong to the master framework now.
GUARDED_MENUS = ("checkin", "checkout", "edit_hierarchy", "purge_versions")

#: The guard program, in the FMCAD extension language.  ``guard-session``
#: locks every guarded menu point of one session.
GUARD_PROGRAM = """
(define (guard-menu sid menu)
  (when (not (menu-locked sid menu))
    (lock-menu sid menu "version and hierarchy control owned by JCF")))

(define (guard-session sid)
  (guard-menu sid "checkin")
  (guard-menu sid "checkout")
  (guard-menu sid "edit_hierarchy")
  (guard-menu sid "purge_versions")
  t)
"""


@dataclasses.dataclass(frozen=True)
class AuditFinding:
    """One cross-framework invariant violation found by :meth:`audit`."""

    category: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.category}] {self.detail}"


@dataclasses.dataclass
class AuditReport:
    """Outcome of one cross-framework audit pass."""

    findings: List[AuditFinding] = dataclasses.field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def by_category(self) -> Dict[str, List[AuditFinding]]:
        grouped: Dict[str, List[AuditFinding]] = {}
        for finding in self.findings:
            grouped.setdefault(finding.category, []).append(finding)
        return grouped

    def render(self) -> str:
        if self.clean:
            return "audit: clean"
        lines = [f"audit: {len(self.findings)} finding(s)"]
        for category, findings in sorted(self.by_category().items()):
            lines.append(f"  {category}: {len(findings)}")
            for finding in findings:
                lines.append(f"    - {finding.detail}")
        return "\n".join(lines)


@dataclasses.dataclass(frozen=True)
class Inconsistency:
    """One detected consistency problem."""

    kind: str        # "meta", "hierarchy", "payload", "configuration"
    detail: str
    detected_by: str  # "hybrid" or "fmcad"

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail}"


class ConsistencyGuard:
    """Locks menus, mediates ITC and cross-checks master vs slave state."""

    def __init__(
        self,
        jcf: JCFFramework,
        fmcad: FMCADFramework,
        mapper: DataModelMapper,
        hierarchy: HierarchyManager,
    ) -> None:
        self.jcf = jcf
        self.fmcad = fmcad
        self.mapper = mapper
        self.hierarchy = hierarchy
        self._interceptor_installed = False
        fmcad.interpreter.run(GUARD_PROGRAM)

    # -- menu locking (extension language) ----------------------------------

    def guard_session(self, session: ToolSession) -> None:
        """Lock the guarded menu points of *session* via the interpreter.

        Menu points the tool did not register are registered as inert
        entries first, so locking is uniform across tools.
        """
        for name in GUARDED_MENUS:
            if name not in session.menu_names():
                session.register_menu(name, lambda: None)
        self.fmcad.interpreter.call("guard-session", [session.session_id])

    # -- ITC mediation (Section 2.4 wrappers) -----------------------------------

    def install_itc_interceptor(self) -> None:
        """Veto cross-probes into cells another user has reserved.

        FMCAD's ITC "could not be used normally" under the coupling; the
        wrapper inspects each message and suppresses those that would leak
        unpublished state across workspaces.
        """
        if self._interceptor_installed:
            return

        def interceptor(message: ITCMessage) -> Optional[ITCMessage]:
            target = message.payload.get("cell")
            if not target:
                return message
            holder = self._reservation_holder(str(target))
            sender_user = message.payload.get("user", message.sender)
            if holder is not None and holder != sender_user:
                return None  # veto: reserved by someone else
            return message

        self.fmcad.bus.add_interceptor(interceptor)
        self._interceptor_installed = True

    def _reservation_holder(self, cell_name: str) -> Optional[str]:
        for project_obj in self.jcf.db.select("Project"):
            project = JCFProject(self.jcf.db, project_obj)
            cell = project.find_cell(cell_name)
            if cell is None:
                continue
            latest = cell.latest_version()
            if latest is None:
                continue
            return self.jcf.workspaces.reserved_by(latest)
        return None

    # -- cross checks (Section 3.2) ------------------------------------------------

    def scan(self, project: JCFProject, library: Library) -> List[Inconsistency]:
        """Full hybrid consistency scan: meta, hierarchy, payload, configs."""
        findings: List[Inconsistency] = []
        for problem in library.verify_meta():
            findings.append(Inconsistency("meta", problem, "hybrid"))
        try:
            for problem in self.hierarchy.verify_against_library(
                project, library
            ):
                findings.append(Inconsistency("hierarchy", problem, "hybrid"))
        except IntegrityError as exc:
            # a verified read tripped over damaged bytes mid-extraction;
            # that is itself the strongest possible finding
            findings.append(
                Inconsistency(
                    "integrity",
                    f"{exc.location or 'library data'}: "
                    f"{exc.classification or 'corrupt'} detected during "
                    "hierarchy extraction",
                    "hybrid",
                )
            )
        findings.extend(self._scan_payloads(library))
        findings.extend(self._scan_configurations(project))
        return findings

    def _scan_payloads(self, library: Library) -> List[Inconsistency]:
        """Compare OMS blobs with the FMCAD version files they mirror."""
        findings: List[Inconsistency] = []
        for cellview in library.cellviews():
            for version in cellview.versions:
                oid = version.properties.get("jcf_oid")
                if oid is None:
                    findings.append(
                        Inconsistency(
                            "payload",
                            f"{cellview.name} v{version.number} has no JCF "
                            "counterpart (created outside the coupling?)",
                            "hybrid",
                        )
                    )
                    continue
                if not self.jcf.db.exists(oid):
                    findings.append(
                        Inconsistency(
                            "payload",
                            f"{cellview.name} v{version.number}: JCF object "
                            f"{oid} vanished",
                            "hybrid",
                        )
                    )
                    continue
                blob = self.jcf.db.get(oid).payload or b""
                if not version.path.exists():
                    findings.append(
                        Inconsistency(
                            "payload",
                            f"{cellview.name} v{version.number}: FMCAD file "
                            "deleted on disk",
                            "hybrid",
                        )
                    )
                elif blob != version.read_data():
                    findings.append(
                        Inconsistency(
                            "payload",
                            f"{cellview.name} v{version.number}: OMS blob "
                            "and FMCAD file differ",
                            "hybrid",
                        )
                    )
        return findings

    def _scan_configurations(
        self, project: JCFProject
    ) -> List[Inconsistency]:
        findings: List[Inconsistency] = []
        for cell in project.cells():
            for cell_version in cell.versions():
                for config in self.jcf.configurations.configurations_of(
                    cell_version
                ):
                    for problem in self.jcf.configurations.validate(config):
                        findings.append(
                            Inconsistency(
                                "configuration",
                                f"{config.name}: {problem}",
                                "hybrid",
                            )
                        )
        return findings

    # -- crash-consistency audit (recovery's acceptance check) ----------------------

    def audit(self) -> AuditReport:
        """Audit the whole coupling for crash leavings.

        Unlike :meth:`scan`, which compares one project against one
        library, the audit sweeps every invariant a crashed coupled run
        can break: untagged or mistagged FMCAD versions, dangling
        checkout tickets, leaked tool sessions, executions stuck
        ``running``, reservations that outlived their legitimacy,
        unrecorded staging files, and payload refcounts that disagree
        with the live object graph.  A clean
        report is the definition of "recovered".
        """
        report = AuditReport()
        self._audit_versions(report)
        self._audit_tickets(report)
        self._audit_sessions(report)
        self._audit_executions(report)
        self._audit_reservations(report)
        self._audit_staging(report)
        self._audit_blobs(report)
        self._audit_leases(report)
        self._audit_integrity(report)
        self._audit_flow_instances(report)
        return report

    def _audit_leases(self, report: AuditReport) -> None:
        """Flag expired checkout leases nobody reclaimed, when attached.

        A lease table (published by a serving engine, probed like the
        WAL) should never hold an expired lease on a quiesced system —
        recovery's lease sweep or the engine pump reclaims them.  One
        still live here means a dead session's write claim is blocking
        successors: a ``stale-lease`` finding.
        """
        table = getattr(self.jcf.db, "lease_table", None)
        if table is None:
            return
        now = table.now()
        for lease in table.live_leases():
            if lease.expired(now):
                report.findings.append(AuditFinding(
                    "stale-lease",
                    f"{lease.key}: expired at {lease.expires_ms:.0f}ms "
                    f"(session {lease.session_id}, token {lease.token}) "
                    f"but never reclaimed",
                ))

    def _each_library(self) -> List[Library]:
        """Every library: the open ones plus any still closed on disk."""
        libraries = list(self.fmcad.libraries())
        open_names = {library.name for library in libraries}
        for name in self.fmcad.known_library_names():
            if name not in open_names:
                libraries.append(self.fmcad.open_library(name))
        return libraries

    def _audit_flow_instances(self, report: AuditReport) -> None:
        """Tenth sweep: orphaned or stranded durable flow state.

        A ``running`` instance on a quiesced system means a crash
        interrupted its driver (recovery adopts it back to ``queued``);
        an instance whose variant no longer resolves is an orphan
        (recovery compensates it to ``aborted``); a ``dead_letter``
        instance is parked work an operator must look at — surfaced
        here so ``audit()`` is the one place that lists everything
        unfinished.
        """
        db = self.jcf.db
        for obj in db.select("FlowInstance"):
            status = obj.get("status")
            ident = (
                f"flow instance {obj.oid} ({obj.get('flow_name')} on "
                f"{obj.get('cell')!r})"
            )
            if status == FLOW_DEAD_LETTER:
                report.findings.append(AuditFinding(
                    "dead-letter-flow",
                    f"{ident} dead-lettered: {obj.get('note') or '?'}",
                ))
                continue
            if status in FLOW_TERMINAL_STATES:
                continue
            try:
                db.get(obj.get("variant_oid") or "")
            except Exception:
                report.findings.append(AuditFinding(
                    "flow-orphan",
                    f"{ident} references a variant that no longer exists",
                ))
                continue
            if status == FLOW_RUNNING:
                report.findings.append(AuditFinding(
                    "flow-orphan",
                    f"{ident} still marked running on a quiesced system",
                ))

    def _audit_versions(self, report: AuditReport) -> None:
        for library in self._each_library():
            for cellview in library.cellviews():
                for version in cellview.versions:
                    oid = version.properties.get("jcf_oid")
                    where = (
                        f"{library.name}:{cellview.name} v{version.number}"
                    )
                    if oid is None:
                        report.findings.append(AuditFinding(
                            "orphan-version",
                            f"{where} carries no jcf_oid cross-tag",
                        ))
                    elif not self.jcf.db.exists(oid):
                        report.findings.append(AuditFinding(
                            "unpaired-tag",
                            f"{where} tags dead OMS object {oid}",
                        ))

    def _audit_tickets(self, report: AuditReport) -> None:
        for ticket in self.fmcad.checkouts.active_tickets():
            report.findings.append(AuditFinding(
                "dangling-ticket",
                f"open checkout of {ticket.cellview_key} by {ticket.user}",
            ))

    def _audit_sessions(self, report: AuditReport) -> None:
        for session in self.fmcad.sessions():
            report.findings.append(AuditFinding(
                "leaked-session",
                f"tool session {session.session_id} ({session.tool_name}, "
                f"user {session.user}) still open",
            ))

    def _audit_executions(self, report: AuditReport) -> None:
        for obj in self.jcf.db.select(
            "ActiveExecVersion", lambda o: o.get("status") == EXEC_RUNNING
        ):
            report.findings.append(AuditFinding(
                "stale-execution",
                f"execution {obj.oid} still running",
            ))

    def _audit_reservations(self, report: AuditReport) -> None:
        db = self.jcf.db
        for workspace in db.select("Workspace"):
            owner = workspace.get("owner")
            try:
                self.jcf.resources.user(owner)
                owner_known = True
            except Exception:
                owner_known = False
            for cv_oid in db.target_oids("reserves", workspace.oid):
                cell_version = JCFCellVersion(db, db.get(cv_oid))
                if owner_known and not cell_version.published:
                    continue
                reason = (
                    "already published" if cell_version.published
                    else "unknown owner"
                )
                report.findings.append(AuditFinding(
                    "orphan-reservation",
                    f"{owner} reserves cell version {cell_version.number} "
                    f"of {cell_version.cell.name!r} ({reason})",
                ))

    def _audit_staging(self, report: AuditReport) -> None:
        for path in self.jcf.staging.orphan_files():
            report.findings.append(AuditFinding(
                "staging-orphan",
                f"unrecorded staging file {path.name}",
            ))

    def _audit_blobs(self, report: AuditReport) -> None:
        for problem in self.jcf.db.verify_payload_refcounts():
            report.findings.append(AuditFinding("blob-refcount", problem))

    def _audit_integrity(self, report: AuditReport) -> None:
        """Report-only integrity scrub over every storage area.

        Only *actionable* damage counts: informational orphans are
        covered by the dedicated sweeps above, and known-quarantined
        losses were already surfaced by the recovery pass that
        quarantined them — re-reporting forever would make a recovered
        store permanently un-auditable.  Damage to the write-ahead log
        (a torn tail recovery has not dropped yet, a checkpoint failing
        its checksum, a payload pack frame no longer proving its digest)
        is reported as ``wal-integrity``.
        """
        for finding in Scrubber(self.jcf, self.fmcad).scrub().findings:
            if finding.actionable:
                category = (
                    "wal-integrity" if finding.area == "wal" else "integrity"
                )
                report.findings.append(AuditFinding(category, str(finding)))

    # -- the FMCAD baseline (what the slave notices by itself) ----------------------

    @staticmethod
    def fmcad_baseline_scan(library: Library) -> List[Inconsistency]:
        """What standard FMCAD detects automatically: nothing.

        Section 2.2: metadata refresh "is not performed automatically, and
        therefore, it is the responsibility of the designer".  FMCAD will
        happily work from a stale ``.meta``; the E32 experiment uses this
        empty baseline against the hybrid scan.
        """
        return []
