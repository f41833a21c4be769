"""The coupling's consistency guard.

Section 2.4: "The customization of the encapsulation was extended by
several extension language procedures to trigger functions and lock menu
points in order to prevent data inconsistency."  The guard here is
written *in* the FMCAD extension language (menu locking), installs an ITC
interceptor (wrapper mediation), and provides the cross-checks that make
the hybrid framework's "more powerful data consistency check" (Section
3.2) measurable.  Its crash-consistency audit is the one list crash
recovery works from: each finding names the item and the rule that
repairs it (:mod:`repro.core.recovery`).
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.hierarchy import HierarchyManager
from repro.errors import IntegrityError
from repro.integrity.scrub import Scrubber, ScrubFinding
from repro.core.mapping import DataModelMapper
from repro.fmcad.framework import FMCADFramework
from repro.fmcad.itc import ITCMessage
from repro.fmcad.library import Library
from repro.fmcad.session import ToolSession
from repro.jcf.flow_engine import JCFExecution
from repro.jcf.framework import JCFFramework
from repro.jcf.model import (
    EXEC_RUNNING,
    FLOW_ABORTED,
    FLOW_DEAD_LETTER,
    FLOW_QUEUED,
    FLOW_RUNNING,
    FLOW_TERMINAL_STATES,
)
from repro.jcf.project import JCFCellVersion, JCFProject
from repro.oms.objects import OMSObject

#: the ``settle-version`` item of a version recovery drops
DROP = "drop"

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
    """One cross-framework invariant violation found by :meth:`audit`.

    *rule* names the repair :class:`~repro.core.recovery.CouplingRecovery`
    applies to *item*, the object the finding names; a finding without a
    rule is noted, not repaired.
    """

    category: str
    detail: str
    item: Any = dataclasses.field(default=None, compare=False, repr=False)
    rule: Optional[str] = None

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
        self.scrubber = Scrubber(jcf, fmcad)
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
        """Audit the whole coupling for crash leavings, each with its repair.

        Unlike :meth:`scan`, which compares one project against one
        library, the audit sweeps every invariant a crashed coupled run
        can break.  Each finding names the rule
        :meth:`~repro.core.recovery.CouplingRecovery.recover` repairs it
        by, or none: then it is noted.  A clean report is the definition
        of "recovered".
        """
        report = AuditReport()
        db = self.jcf.db
        # first: its lost tags settle versions, and it lists the files
        # no record names
        scrubbed = self.scrubber.scrub().findings
        executions = db.select(
            "ActiveExecVersion", lambda o: o.get("status") == EXEC_RUNNING
        )
        dropped = self._audit_versions(report, executions)
        for obj in executions:
            report.findings.append(AuditFinding(
                "stale-execution", f"execution {obj.oid} still running",
                obj, "fail-execution",
            ))
        for session in self.fmcad.sessions():
            report.findings.append(AuditFinding(
                "leaked-session",
                f"tool session {session.session_id} ({session.tool_name}, "
                f"user {session.user}) still open",
                session, "close-session",
            ))
        for ticket in self.fmcad.checkouts.active_tickets():
            report.findings.append(AuditFinding(
                "dangling-ticket",
                f"open checkout of {ticket.cellview_key} by {ticket.user}",
                ticket, "cancel-ticket",
            ))
        self._audit_reservations(report)
        self._audit_flow_instances(report)
        # a lease table (attached by a serving engine, like the WAL) holds
        # no expired lease on a quiesced system: recovery or the engine
        # pump reclaims them.  One still live is a dead session's write
        # claim blocking successors
        table = getattr(db, "lease_table", None)
        now = table.now() if table else 0.0
        for lease in table.live_leases() if table else []:
            if lease.expired(now):
                report.findings.append(AuditFinding(
                    "stale-lease",
                    f"{lease.key}: expired at {lease.expires_ms:.0f}ms "
                    f"(session {lease.session_id}, token {lease.token}) "
                    f"but never reclaimed",
                    lease, "reclaim-lease",
                ))
        for problem in db.verify_payload_refcounts():
            report.findings.append(AuditFinding("blob-refcount", problem))
        self._audit_storage(report, scrubbed, dropped)
        return report

    def _audit_versions(
        self, report: AuditReport, executions: List[OMSObject]
    ) -> Set[str]:
        """Each version without a live ``jcf_oid`` tag, and how recovery
        settles it; returns the files of the versions it drops.

        Each cellview is walked newest first.  A *running cell* is the
        cell of a running execution (execution, variant, cell, in the
        library the execution names); there each view's ``fmcad_base``
        is the walk's floor (several runs: the lowest of their bases; a
        view a base lacks: 0).  A lost tag is the scrub's: an OMS
        version names the file (``directory_path``) with its payload.

        ====================================  ============================
        version the walk reaches              ``settle-version`` item
        ====================================  ============================
        a live tag                            no finding; stops the walk
        untagged, with a lost tag             its tag back; stops the walk
        a dead tag, or in a running cell      :data:`DROP`: the run's OMS
        above the floor, while the walk goes  side never committed
        untagged, outside a running cell or   noted, and stops the walk:
        at or below the floor                 written through FMCAD
        any other, below where it stopped     noted: only the newest
                                              version can be dropped
        ====================================  ============================
        """
        db = self.jcf.db
        lost_tags = self.scrubber.lost_tags
        bases: Dict[Tuple[str, str], List[Dict[str, int]]] = {}
        for obj in executions:
            cell_name = JCFExecution(db, obj).variant.cell_version.cell.name
            bases.setdefault((obj.get("library"), cell_name), []).append({
                str(view): int(number)
                for view, number in obj.get("fmcad_base") or []
            })
        dropped: Set[str] = set()
        for library in self.fmcad.all_libraries()[0]:
            for cellview in library.cellviews():
                runs = bases.get((library.name, cellview.cell_name))
                floor = None if runs is None else min(
                    base.get(cellview.view.name, 0) for base in runs
                )
                stopped = False
                for version in reversed(cellview.versions):
                    tag = version.properties.get("jcf_oid")
                    if db.exists(tag or ""):
                        stopped = True
                        continue
                    settle = None if tag else lost_tags.get(str(version.path))
                    if settle is None and not stopped and (
                        tag or (floor is not None and version.number > floor)
                    ):
                        settle = DROP
                        dropped.add(str(version.path))
                    stopped = stopped or settle != DROP
                    where = f"{library.name}:{cellview.name} v{version.number}"
                    report.findings.append(AuditFinding(
                        "unpaired-tag" if tag else "orphan-version",
                        f"{where} tags dead OMS object {tag}" if tag
                        else f"{where} carries no jcf_oid cross-tag",
                        (library, cellview, version, settle),
                        None if settle is None else "settle-version",
                    ))
        return dropped

    def _audit_reservations(self, report: AuditReport) -> None:
        """A ``reserves`` link is orphaned when its target cell version is
        already published (publish releases atomically, so this only
        happens when the protocol was bypassed) or when its workspace's
        owner is no longer a registered user."""
        db = self.jcf.db
        for workspace in db.select("Workspace"):
            try:
                self.jcf.resources.user(workspace.get("owner"))
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
                    f"{workspace.get('owner')} reserves cell version "
                    f"{cell_version.number} of {cell_version.cell.name!r} "
                    f"({reason})",
                    (workspace, cell_version), "release-reservation",
                ))

    def _audit_flow_instances(self, report: AuditReport) -> None:
        """Flow instances left unfinished, with the state recovery puts
        them in.

        A ``running`` instance on a quiesced system means a crash
        interrupted its driver: recovery adopts it back to ``queued``.
        One whose variant no longer resolves can never make progress:
        recovery compensates it to ``aborted``.  A ``dead_letter`` one
        is parked work an operator must look at: noted.
        """
        db = self.jcf.db
        for obj in db.select("FlowInstance"):
            status = obj.get("status")
            if status == FLOW_DEAD_LETTER:
                detail = f"dead-lettered: {obj.get('note') or '?'}"
                settle = None
            elif status in FLOW_TERMINAL_STATES:
                continue
            elif not db.exists(obj.get("variant_oid") or ""):
                detail = "references a variant that no longer exists"
                settle = FLOW_ABORTED
            elif status == FLOW_RUNNING:
                detail = "still marked running on a quiesced system"
                settle = FLOW_QUEUED
            else:
                continue
            report.findings.append(AuditFinding(
                "dead-letter-flow" if settle is None else "flow-orphan",
                f"flow instance {obj.oid} ({obj.get('flow_name')} on "
                f"{obj.get('cell')!r}) {detail}",
                (obj, settle), None if settle is None else "settle-flow",
            ))

    def _audit_storage(
        self, report: AuditReport, scrubbed: List[ScrubFinding],
        dropped: Set[str],
    ) -> None:
        """The storage scrub's findings recovery acts on: unrecorded
        staging files (noted by the scrub) and FMCAD files no OMS version
        names are reclaimed, a torn tail of the live WAL log or the pack
        is cut, other damage is the scrub's to repair.  A version
        recovery drops needs no repair of its file, and known-quarantined
        losses were surfaced by the recovery that quarantined them:
        re-reporting them forever would make a recovered store
        permanently un-auditable.
        """
        wal = self.jcf.wal
        libs = self.fmcad.root / "libs"
        for finding in scrubbed:
            path = pathlib.Path(finding.location)
            if finding.area == "staging-orphan":
                report.findings.append(AuditFinding(
                    "staging-orphan", f"unrecorded staging file {path.name}",
                    path, "reclaim-staging-file",
                ))
            elif not finding.actionable or finding.location in dropped:
                continue
            elif finding.area == "fmcad-orphan":
                name = str(path.relative_to(libs))
                report.findings.append(AuditFinding(
                    "fmcad-orphan", f"unrecorded FMCAD file {name}",
                    (path, name), "reclaim-fmcad-file",
                ))
            elif finding.area != "wal":
                report.findings.append(
                    AuditFinding("integrity", str(finding), finding, "scrub")
                )
            else:
                tail = finding.classification == "torn-tail" and (
                    finding.location == str(wal.log_path)
                    or finding.location.startswith(f"{wal.pack_path}@")
                )
                report.findings.append(AuditFinding(
                    "wal-integrity", str(finding), finding,
                    "cut-wal-tail" if tail else "scrub",
                ))

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
