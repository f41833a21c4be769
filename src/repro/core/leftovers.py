"""What a crash leaves behind: one finder per category of leftover.

:meth:`ConsistencyGuard.audit <repro.core.consistency.ConsistencyGuard.audit>`
formats what these finders yield, and
:meth:`CouplingRecovery.recover <repro.core.recovery.CouplingRecovery.recover>`
repairs those same items, so each rule of what counts as a leftover is
written once.  Every finder only reads.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.fmcad.framework import FMCADFramework
from repro.fmcad.library import Library
from repro.fmcad.objects import CellView, CellViewVersion
from repro.jcf.framework import JCFFramework
from repro.jcf.model import (
    EXEC_RUNNING,
    FLOW_DEAD_LETTER,
    FLOW_RUNNING,
    FLOW_TERMINAL_STATES,
)
from repro.jcf.project import JCFCellVersion
from repro.oms.objects import OMSObject

#: states :meth:`Leftovers.stranded_flows` reports a flow instance in
FLOW_PARKED, FLOW_GONE, FLOW_STRANDED = "dead-letter", "gone", "running"


class Leftovers:
    """Finds crash leftovers in both frameworks of one coupling."""

    def __init__(self, jcf: JCFFramework, fmcad: FMCADFramework) -> None:
        self.jcf = jcf
        self.fmcad = fmcad

    def running_executions(self) -> List[OMSObject]:
        """Executions still ``running``: on a quiesced system, a crash
        interrupted each one's run."""
        return self.jcf.db.select(
            "ActiveExecVersion", lambda o: o.get("status") == EXEC_RUNNING
        )

    def stray_versions(
        self,
    ) -> Iterator[Tuple[Library, CellView, List[CellViewVersion]]]:
        """Each cellview's versions whose ``jcf_oid`` tag is missing or
        names no live OMS object, oldest first; every library is opened."""
        exists = self.jcf.db.exists
        for library in self.fmcad.all_libraries()[0]:
            for cellview in library.cellviews():
                strays = [
                    version for version in cellview.versions
                    if not exists(version.properties.get("jcf_oid") or "")
                ]
                if strays:
                    yield library, cellview, strays

    def orphan_reservations(self) -> List[Tuple[OMSObject, JCFCellVersion]]:
        """``(workspace, cell version)`` of each illegitimate reservation.

        A ``reserves`` link is orphaned when its target cell version is
        already published (publish releases atomically, so this only
        happens when the protocol was bypassed) or when its workspace's
        owner is no longer a registered user.
        """
        db = self.jcf.db
        orphans = []
        for workspace in db.select("Workspace"):
            try:
                self.jcf.resources.user(workspace.get("owner"))
                owner_known = True
            except Exception:
                owner_known = False
            for cv_oid in db.target_oids("reserves", workspace.oid):
                cell_version = JCFCellVersion(db, db.get(cv_oid))
                if cell_version.published or not owner_known:
                    orphans.append((workspace, cell_version))
        return orphans

    def stranded_flows(self) -> Iterator[Tuple[OMSObject, str]]:
        """``(instance, state)`` of each flow instance left unfinished.

        A ``running`` instance on a quiesced system means a crash
        interrupted its driver; an instance whose variant no longer
        resolves can never make progress; a ``dead_letter`` one is
        parked work an operator must look at.
        """
        db = self.jcf.db
        for obj in db.select("FlowInstance"):
            status = obj.get("status")
            if status == FLOW_DEAD_LETTER:
                yield obj, FLOW_PARKED
                continue
            if status in FLOW_TERMINAL_STATES:
                continue
            try:
                db.get(obj.get("variant_oid") or "")
            except Exception:
                yield obj, FLOW_GONE
                continue
            if status == FLOW_RUNNING:
                yield obj, FLOW_STRANDED
