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
views at that moment (``fmcad_base``), and ``finish_activity`` settles
it.  On a quiesced system a ``running`` execution names a run a crash
interrupted.  A scheduled wave writes each touched library's ``.meta``
once after all its runs and then appends one WAL record for the whole
wave; a wave that died before that record left no execution behind.

:class:`CouplingRecovery` settles both in one newest-first walk per
cellview over the versions without a live ``jcf_oid`` tag.  A *running
cell* is the cell (execution, variant, cell) of a running execution;
its views' ``fmcad_base`` is the walk's floor there:

==========================================  ================================
version the walk reaches                    action
==========================================  ================================
``jcf_oid`` tag names a live OMS version    keep, and stop the walk: the
                                            run got far enough
in a running cell, above the floor, and     roll forward: give the tag back
an OMS version names the file               and stop (both writes happened,
(``directory_path``) with the same payload  the cross-tag was the casualty)
untagged, outside a running cell or at or   keep, and stop the walk: written
below the floor                             through FMCAD directly, for the
                                            audit to name
any other (the OMS import never             roll back: drop the FMCAD
committed, or the wave's WAL record never   version
landed)
version file no record names (the wave      reclaim, unless an OMS version
died before its ``.meta`` batch closed)     names it; a torn batch is never
                                            read, and the next write cuts it
==========================================  ================================

Around that core decision, recovery also fails executions left
``running``, closes every tool session, cancels dangling checkout
tickets, releases orphaned workspace reservations and reclaims
unrecorded staging files (a crashed scheduled run's staged files among
them: they sit in the one staging root under the run's name prefix,
and no record claims them).  What counts as a leftover in each
category is decided once, in :mod:`repro.core.leftovers`, which the
audit reads too.  A version file an OMS version names but ``.meta``
lost at rest is rolled forward by the storage scrub, the last pass.

Recovery assumes a *quiesced* system — it is the restart path, run
before any new coupled work begins, exactly like a database's crash
recovery.  It is idempotent: running it twice, or on a healthy store,
changes nothing (asserted by the test suite via audit + snapshot
equality).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.core.leftovers import FLOW_GONE, FLOW_STRANDED, Leftovers
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
from repro.jcf.model import FLOW_ABORTED, FLOW_QUEUED
from repro.oms.objects import OMSObject

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
        self.leftovers = Leftovers(jcf, fmcad)

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
        # first: every repair below that writes OMS appends to the log
        self._sweep_wal(report)
        executions = self.leftovers.running_executions()
        self._settle_versions(executions, report)
        for obj in executions:
            self.jcf.engine.finish_activity(
                JCFExecution(self.jcf.db, obj), success=False
            )
            report.failed_executions.append(obj.oid)
        for session in list(self.fmcad.sessions()):
            self.fmcad.close_session(session.session_id)
            report.closed_sessions.append(session.session_id)
        for ticket in self.fmcad.checkouts.active_tickets():
            try:
                self.fmcad.checkouts.cancel(ticket)
            except (FMCADError, LibraryError):  # pragma: no cover - defensive
                continue
            report.cancelled_tickets.append(
                f"{ticket.cellview_key} ({ticket.user})"
            )
        for workspace, cell_version in self.leftovers.orphan_reservations():
            self.jcf.db.unlink("reserves", workspace.oid, cell_version.oid)
            reason = (
                "published" if cell_version.published else "unknown owner"
            )
            report.released_reservations.append(
                f"{workspace.get('owner')}: cell version "
                f"{cell_version.number} of {cell_version.cell.name!r} "
                f"({reason})"
            )
        self._sweep_flow_instances(report)
        for path in self.jcf.staging.reclaim_orphans():
            report.reclaimed_staging_files.append(path.name)
        self._sweep_leases(report)
        self._scrub_storage(report)
        return report

    def _settle_versions(
        self, executions: List[OMSObject], report: RecoveryReport
    ) -> None:
        """Keep, retag or drop each cellview's newest stray versions.

        One newest-first walk per cellview, by the table above; the OMS
        versions are read only when a running cell has a version to look
        up.  Then every library's version files no record names are
        reclaimed, but never one an OMS version names.
        """
        db = self.jcf.db
        bases: Dict[Tuple[str, str], List[Dict[str, int]]] = {}
        for obj in executions:
            cell_name = JCFExecution(db, obj).variant.cell_version.cell.name
            bases.setdefault((obj.get("library"), cell_name), []).append({
                str(view): int(number)
                for view, number in obj.get("fmcad_base") or []
            })
        walks = []
        #: file path -> digest of each version the walk may give a tag back
        lookups: Dict[str, Optional[str]] = {}
        for library, cellview, strays in self.leftovers.stray_versions():
            runs = bases.get((library.name, cellview.cell_name))
            floor = None if runs is None else min(
                base.get(cellview.view.name, 0) for base in runs
            )
            walk = []
            for version in reversed(cellview.versions):
                if not strays or strays.pop() is not version:
                    break  # a live tag: the versions below are settled
                if floor is not None and version.number > floor:
                    lookups[str(version.path)] = version._content_digest
                elif not version.properties.get("jcf_oid"):
                    break
                walk.append(version)
            if walk:
                walks.append((library, cellview, walk))
        named = self.scrubber.oms_names(lookups)
        touched: Dict[str, Library] = {}
        for library, cellview, walk in walks:
            touched[library.name] = library
            for version in walk:
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
        for library in self.fmcad.all_libraries()[0]:
            try:
                reclaimed = library.reclaim_orphans(
                    keep=self.scrubber.oms_paths
                )
            except MetaFileError:
                continue  # a damaged .meta is the storage scrub's finding
            for path in reclaimed:
                report.reclaimed_fmcad_files.append(
                    str(path.relative_to(library.directory.parent))
                )

    def _sweep_flow_instances(self, report: RecoveryReport) -> None:
        """Compensate to ``aborted`` each instance whose variant is gone;
        adopt each ``running`` one back to ``queued``, for
        ``resume_pending()`` to roll forward from its last durably
        completed activity (the failed execution makes the re-run
        admissible)."""
        db = self.jcf.db
        for obj, state in self.leftovers.stranded_flows():
            if state == FLOW_GONE:
                db.set_attr(obj.oid, "status", FLOW_ABORTED)
                db.set_attr(
                    obj.oid, "note",
                    "compensated by recovery: design context is gone",
                )
                db.set_attr(obj.oid, "updated_ms", db.clock.now_ms)
                report.compensated_flows.append(obj.oid)
            elif state == FLOW_STRANDED:
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
