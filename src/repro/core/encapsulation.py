"""Encapsulation of the three FMCAD tools as JCF activities.

Section 2.4: "each tool is modelled by one JCF activity, [so] JCF records
all derivation relationships between schematic and layout versions."  A
wrapper run performs the full coupled protocol:

1. verify the user holds the cell version in their workspace (master
   concurrency control);
2. start the JCF activity — in flow order, or *forced early* with the
   extra consistency window the 1995 wrappers popped up;
3. stage the needed design-object versions out of OMS through the UNIX
   file system (the Section 2.1 copy path — charged even read-only);
4. open an FMCAD tool session, lock its guarded menu points via the
   extension-language guard, check the target cellview out;
5. run the actual tool;
6. check the result into FMCAD *and* import it into OMS as a new
   design-object version, cross-tagging both sides;
7. finish the activity, recording needs/creates — the derivation record.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional, Tuple

from repro.core import gates
from repro.core.consistency import ConsistencyGuard
from repro.core.mapping import WORKING_VARIANT, DataModelMapper
from repro.core.recovery import IntentJournal
from repro.errors import (
    EncapsulationError,
    FlowOrderError,
    MetaFileError,
    SchematicError,
)
from repro.faults import CrashFault, fault_point, with_retries
from repro.fmcad.framework import FMCADFramework
from repro.fmcad.library import Library
from repro.jcf.model import EXEC_RUNNING, INTENT_ABORTED, INTENT_DONE
from repro.jcf.framework import JCFFramework
from repro.oms.blobs import digest_bytes
from repro.jcf.project import (
    JCFCellVersion,
    JCFDesignObject,
    JCFDesignObjectVersion,
    JCFProject,
    JCFVariant,
)
from repro.tools.layout.drc import run_drc
from repro.tools.layout.editor import Layout, LayoutEditor
from repro.tools.schematic.editor import SchematicEditor
from repro.tools.schematic.model import Schematic
from repro.tools.schematic.netlist import netlist_schematic
from repro.tools.simulator.testbench import Testbench


def publish_meta(library: Library, user: str) -> None:
    """Flush *library*'s ``.meta``; a held writer lock is an error here.

    Coupled checkins are durable only once ``.meta`` names them, and the
    WAL record that follows must never log versions it does not name.
    """
    if not library.flush_meta(user):
        raise MetaFileError(
            f"library {library.name!r}: .meta writer lock is held by "
            f"{library.metafile.writer!r}; {user!r} cannot publish"
        )


@dataclasses.dataclass
class ToolRunResult:
    """Outcome of one encapsulated tool run."""

    activity_name: str
    cell_name: str
    success: bool
    fmcad_version: Optional[int]
    jcf_version_oid: Optional[str]
    forced_early: bool
    details: str = ""


class _ToolWrapper:
    """Shared coupled-run machinery; subclasses implement the tool step."""

    ACTIVITY: str = ""
    TOOL: str = ""
    VIEWTYPE: str = ""
    #: white/grey-box wrappers lock the tool's menu points through the
    #: extension-language guard; a black box exposes no menus to lock.
    GUARD_MENUS: bool = True

    def __init__(
        self,
        jcf: JCFFramework,
        fmcad: FMCADFramework,
        mapper: DataModelMapper,
        guard: ConsistencyGuard,
    ) -> None:
        self.jcf = jcf
        self.fmcad = fmcad
        self.mapper = mapper
        self.guard = guard
        self.intents = IntentJournal(jcf.db)
        #: diff harvested outputs against the parent version's digest and
        #: re-intern only changed views; False forces the seed's
        #: paper-faithful full harvest (the ablation the equivalence
        #: tests compare against)
        self.delta_harvest = True
        #: harvested outputs whose bytes matched the parent (metadata cost)
        self.harvest_delta_hits = 0
        #: harvested outputs that actually changed (full copy charged)
        self.harvest_full_imports = 0
        #: optional TriggerRegistry; when set, every successful harvest
        #: records a durable checkin event for event-driven flows
        self.triggers = None

    # -- context helpers ------------------------------------------------------

    def working_variant(
        self, project: JCFProject, cell_name: str
    ) -> JCFVariant:
        cell = project.cell(cell_name)
        cell_version = cell.latest_version()
        if cell_version is None:
            raise EncapsulationError(
                f"cell {cell_name!r} has no cell version; map the library "
                "into JCF first"
            )
        return cell_version.variant(WORKING_VARIANT)

    def _require_workspace(
        self, user: str, cell_version: JCFCellVersion
    ) -> None:
        if not self.jcf.workspaces.can_write(user, cell_version):
            raise EncapsulationError(
                f"user {user!r} must reserve cell version "
                f"{cell_version.number} of {cell_version.cell.name!r} in "
                "their workspace before running tools"
            )

    def _stage_needs(
        self, variant: JCFVariant, viewtypes: Tuple[str, ...]
    ) -> List[Tuple[JCFDesignObjectVersion, bytes]]:
        """Export the needed design objects' latest versions via staging.

        One batched staging request covers all needs: unchanged files
        already in the staging area are revalidated by digest instead of
        re-copied, so a rerun of the same activity pays metadata cost
        only.
        """
        versions: List[JCFDesignObjectVersion] = []
        for viewtype in viewtypes:
            dobj = variant.find_design_object(viewtype)
            if dobj is None or dobj.latest_version() is None:
                raise EncapsulationError(
                    f"variant {variant.name!r} has no {viewtype!r} design "
                    "data; run the producing activity first"
                )
            versions.append(dobj.latest_version())
        # needs are tool *inputs* — declared read-only, so identical
        # payloads stage as hard links with zero bytes copied
        staged_files = self.jcf.staging.export_objects(
            [version.oid for version in versions], writable=False
        )
        return [
            # verified read: a staged file that rotted since its export
            # raises IntegrityError here instead of feeding the tool
            # garbage it would dutifully parse into a broken design
            (version, self.jcf.staging.read_staged(staged_file.oid))
            for version, staged_file in zip(versions, staged_files)
        ]

    def _ensure_design_object(
        self, variant: JCFVariant, name: str, viewtype: str
    ) -> JCFDesignObject:
        for dobj in variant.design_objects():
            if dobj.name == name:
                return dobj
        return variant.create_design_object(name, viewtype)

    def _harvest(
        self,
        user: str,
        library: Library,
        variant: JCFVariant,
        cell_name: str,
        data: bytes,
        viewtype: Optional[str] = None,
        completed: Optional[list] = None,
    ) -> Tuple["object", JCFDesignObjectVersion, bool]:
        """Check *data* into FMCAD and import it into OMS.

        Returns ``(fmcad cellview version, jcf version, unchanged)`` —
        *unchanged* is True when the delta harvest found the output
        byte-identical to its parent version.  The caller
        owns the surrounding OMS transaction and places the ``jcf_oid``
        cross-tags after it commits; each FMCAD version checked in is
        appended to *completed* so the caller can compensate them if the
        transaction aborts.  The library's ``.meta`` is left to the
        caller, which writes it once per run or per wave.  A failed
        checkin or import cancels the checkout ticket (and undoes a
        half-landed version) instead of leaking it — unless the failure
        is a simulated crash, which cleans up nothing by definition.
        """
        viewtype = viewtype or self.VIEWTYPE
        cell = library.cell(cell_name)
        if not cell.has_cellview(viewtype):
            library.create_cellview(cell_name, viewtype)
        ticket = self.fmcad.checkouts.checkout(
            user, library, cell_name, viewtype
        )
        fault_point("harvest.after_checkout")
        try:
            fmcad_version = self.fmcad.checkouts.checkin(
                ticket, library, data
            )
            if completed is not None:
                completed.append((viewtype, fmcad_version))
            fault_point("harvest.after_checkin")
        except CrashFault:
            raise
        except Exception:
            if ticket.open:
                cellview = library.cellview(cell_name, viewtype)
                latest = cellview.default_version
                if latest is not None and latest.number != ticket.base_version:
                    # checkin died after writing the version file
                    library.drop_version(cellview, latest.number)
                self.fmcad.checkouts.cancel(ticket, library)
            raise
        fault_point("harvest.before_import")
        dobj = self._ensure_design_object(
            variant, f"{cell_name}/{viewtype}", viewtype
        )
        previous = dobj.latest_version()
        unchanged = (
            self.delta_harvest
            and previous is not None
            and previous.payload_digest == digest_bytes(data)
        )
        jcf_version = dobj.new_version(
            data, directory_path=str(fmcad_version.path)
        )
        if unchanged:
            # delta harvest: the tool reproduced the parent version
            # byte-identically, so nothing new crosses the OMS boundary —
            # the blob store dedups the intern, the WAL logs digest-only,
            # and the crossing costs one metadata operation, not a copy
            self.jcf.db.clock.charge_metadata_op()
            self.harvest_delta_hits += 1
        else:
            # the result crosses the OMS boundary: charge the staging copy
            self.jcf.db.clock.charge_copy(len(data), files=1)
            self.harvest_full_imports += 1
        fault_point("harvest.after_import")
        return fmcad_version, jcf_version, unchanged

    def _place_tags(
        self, harvested: List[Tuple[object, JCFDesignObjectVersion]]
    ) -> None:
        """Tag each harvested FMCAD version with its JCF version's oid.

        Tag placement is idempotent, so glitches are simply retried.
        """
        for fmcad_version, version in harvested:
            with_retries(
                lambda fv=fmcad_version, v=version: (
                    fault_point("harvest.before_tag"),
                    fv.properties.set("jcf_oid", v.oid),
                ),
                clock=self.jcf.clock,
            )

    def _compensate_checkins(
        self, user: str, library: Library, cell_name: str, completed: list
    ) -> None:
        """Undo FMCAD checkins whose OMS transaction rolled back.

        ``.meta`` is rewritten only when it already names a dropped
        version: a run whose flush never happened has nothing to retract.
        """
        named = any(
            library.meta_names(fmcad_version)
            for _, fmcad_version in completed
        )
        for viewtype, fmcad_version in reversed(completed):
            cellview = library.cellview(cell_name, viewtype)
            library.drop_version(cellview, fmcad_version.number)
        if named:
            publish_meta(library, user)

    def _cancel_dangling_tickets(
        self, library: Library, cell_name: str
    ) -> None:
        """Cancel any open checkout this run left on its target cell."""
        for ticket in self.fmcad.checkouts.active_tickets():
            if (
                ticket.library_name == library.name
                and ticket.cell_name == cell_name
            ):
                self.fmcad.checkouts.cancel(ticket, library)

    # -- the coupled run ----------------------------------------------------------

    def run(
        self,
        user: str,
        project: JCFProject,
        library: Library,
        cell_name: str,
        force_early: bool = False,
        **tool_kwargs,
    ) -> ToolRunResult:
        """Execute this wrapper's activity on *cell_name* for *user*."""
        variant = self.working_variant(project, cell_name)
        cell_version = variant.cell_version
        self._require_workspace(user, cell_version)

        flow_name = cell_version.attached_flow()
        if flow_name is None:
            raise EncapsulationError(
                f"cell version {cell_version.number} of {cell_name!r} has "
                "no attached flow"
            )
        activity_def = self.jcf.flows.definition(
            flow_name.get("name")
        ).activity(self.ACTIVITY)

        # everything snapshot-visible this run allocates happens in two
        # gate.ordered() sections (open / commit); under the scheduler the
        # wave executes them in fixed turn order, which is what makes a
        # parallel batch bit-identical to its sequential execution.  With
        # no scheduler the gate is a NullGate and nothing changes.
        gate = gates.current_gate()

        with gate.ordered():
            try:
                execution = self.jcf.engine.start_activity(
                    variant, self.ACTIVITY, force_early=force_early
                )
            except FlowOrderError:
                raise  # out-of-order without supervision: rejected outright

            # the window between starting the activity and journalling the
            # intent: a crash here leaves a running execution no intent
            # describes — recovery's generic execution sweep covers it
            fault_point("run.after_start")

            # phase one: journal the intent — durable before any FMCAD side
            # effect, carrying the per-view version baseline recovery needs
            # to tell this run's half-work from pre-existing state
            try:
                intent_oid = self.intents.begin(
                    kind=self.ACTIVITY,
                    user=user,
                    library=library.name,
                    cell=cell_name,
                    activity=self.ACTIVITY,
                    execution_oid=execution.oid,
                    variant_oid=variant.oid,
                    fmcad_base=[
                        [
                            cv.view.name,
                            cv.default_version.number
                            if cv.default_version
                            else 0,
                        ]
                        for cv in library.cell(cell_name).cellviews()
                    ],
                )

                session = self.fmcad.open_session(self.TOOL, user)
                if self.GUARD_MENUS:
                    self.guard.guard_session(session)
                if execution.forced_early:
                    session.show_consistency_window(
                        f"activity {self.ACTIVITY!r} started before its "
                        "predecessor finished — results are provisional"
                    )
            except CrashFault:
                raise  # dead process: the generic execution sweep repairs
            except Exception:
                # the process is alive but the run never got going (e.g.
                # the cell vanished between workspace check and intent):
                # don't leak a running execution nothing will ever finish
                if execution.status == EXEC_RUNNING:
                    self.jcf.engine.finish_activity(execution, success=False)
                raise
        crashed = False
        #: views that reached durability — non-empty only after the
        #: harvest transaction commits (cleared when it aborts)
        harvested: List[Tuple[object, JCFDesignObjectVersion]] = []
        #: did any harvested view carry new bytes?  Delta-hit re-runs
        #: (idempotent crash resume) must not re-raise checkin events
        changed_views = False
        try:
            needs = with_retries(
                lambda: self._stage_needs(variant, activity_def.needs),
                clock=self.jcf.clock,
            )
            success, data, details = with_retries(
                lambda: self._tool_step(
                    session, library, cell_name, needs, **tool_kwargs
                ),
                clock=self.jcf.clock,
            )
            # the commit section — everything from the harvest
            # transaction to the derivation record runs in wave turn
            # order under the scheduler
            with gate.ordered():
                fmcad_number: Optional[int] = None
                jcf_version: Optional[JCFDesignObjectVersion] = None
                creates: List[JCFDesignObjectVersion] = []
                if data is not None:
                    # a tool may emit several views at once (e.g. schematic
                    # plus the auto-generated symbol); bytes means one view
                    # of the wrapper's primary viewtype
                    outputs = (
                        data
                        if isinstance(data, dict)
                        else {self.VIEWTYPE: data}
                    )
                    # phase two: harvest every view inside ONE OMS
                    # transaction, compensating completed FMCAD checkins if
                    # it aborts — no more half-harvested multi-view runs
                    completed: List[Tuple[str, object]] = []
                    try:
                        with self.jcf.db.transaction():
                            for viewtype, view_data in outputs.items():
                                fmcad_version, version, unchanged = (
                                    self._harvest(
                                        user, library, variant, cell_name,
                                        view_data, viewtype=viewtype,
                                        completed=completed,
                                    )
                                )
                                if not unchanged:
                                    changed_views = True
                                harvested.append((fmcad_version, version))
                                creates.append(version)
                                if viewtype == self.VIEWTYPE:
                                    fmcad_number = fmcad_version.number
                                    jcf_version = version
                            primary = outputs.get(self.VIEWTYPE)
                            if primary is not None:
                                self._pass_hierarchy_to_jcf(
                                    project, cell_name, primary
                                )
                            # one .meta per run, after its version files
                            # and before its WAL record; a scheduled run
                            # leaves it to its wave, which writes it once
                            # for all the wave's runs.  The .meta flush
                            # journals the tags first, so an unscheduled
                            # run places them now
                            if not isinstance(gate, gates.RunGate):
                                self._place_tags(harvested)
                                publish_meta(library, user)
                    except CrashFault:
                        raise  # a dead process compensates nothing
                    except Exception:
                        # the OMS side already rolled itself back; undo the
                        # FMCAD checkins that went with it
                        self._compensate_checkins(
                            user, library, cell_name, completed
                        )
                        harvested.clear()  # nothing survived the abort
                        creates.clear()
                        changed_views = False
                        raise
                    # a scheduled run's transaction committed into its
                    # wave's group: cross-tag the FMCAD versions now, before
                    # the wave journals them and writes its .meta.  A crash
                    # in this window is the roll-forward case (recovery
                    # repairs the tag from the matching payload digest)
                    if isinstance(gate, gates.RunGate):
                        self._place_tags(harvested)
                # outputs durable and cross-tagged; derivation record pending
                fault_point("run.before_finish")
                self.jcf.engine.finish_activity(
                    execution,
                    needs=[version for version, _ in needs],
                    creates=creates,
                    success=success,
                )
                self.fmcad.log_invocation(
                    self.TOOL, user, cell_name, self.VIEWTYPE
                )
                self.intents.finish(intent_oid, INTENT_DONE)
                if (
                    self.triggers is not None
                    and success
                    and changed_views
                ):
                    # the checkin is durable; note the event so trigger
                    # dispatch can enqueue downstream flows exactly once
                    self.triggers.record_event(
                        "checkin", library.name, cell_name, self.VIEWTYPE
                    )
            return ToolRunResult(
                activity_name=self.ACTIVITY,
                cell_name=cell_name,
                success=success,
                fmcad_version=fmcad_number,
                jcf_version_oid=jcf_version.oid if jcf_version else None,
                forced_early=execution.forced_early,
                details=details,
            )
        except CrashFault:
            # simulated process death: no application-level cleanup may
            # run — recovery repairs the wreckage from the intent record
            crashed = True
            raise
        except Exception:
            # an ordinary failure (tool error, exhausted retries): the
            # process is alive, so it cleans up after itself.  Anything
            # the committed transaction made durable keeps its cross-tag
            # — only a dead process leaves tagging to recovery.
            for fmcad_version, version in harvested:
                if fmcad_version.properties.get("jcf_oid") is None:
                    fmcad_version.properties.set("jcf_oid", version.oid)
            if execution.status == EXEC_RUNNING:
                self.jcf.engine.finish_activity(execution, success=False)
            self._cancel_dangling_tickets(library, cell_name)
            self.intents.finish(
                intent_oid,
                INTENT_DONE if harvested else INTENT_ABORTED,
                note="failed after outputs committed" if harvested else "",
            )
            raise
        finally:
            if not crashed:
                self.fmcad.close_session(session.session_id)

    def _pass_hierarchy_to_jcf(
        self, project: JCFProject, cell_name: str, data: bytes
    ) -> None:
        """Pass saved hierarchy info to JCF via the procedural interface.

        Only active when the Section 3.3 future-work interface is
        enabled; under JCF 3.0 hierarchy stays a manual desktop affair.
        """
        if not self.guard.hierarchy.procedural_interface:
            return
        if self.VIEWTYPE == "schematic":
            refs = Schematic.from_bytes(data).subcell_refs()
        elif self.VIEWTYPE == "layout":
            refs = Layout.from_bytes(data).subcell_refs()
        else:
            return
        if refs:
            self.guard.hierarchy.submit_procedurally(
                project, [(cell_name, ref) for ref in refs]
            )

    # -- subclass hook ---------------------------------------------------------------

    def _tool_step(
        self,
        session,
        library: Library,
        cell_name: str,
        needs: List[Tuple[JCFDesignObjectVersion, bytes]],
        **tool_kwargs,
    ) -> Tuple[bool, Optional[bytes], str]:
        """Run the tool; return (success, result bytes or None, details)."""
        raise NotImplementedError


class SchematicEntryWrapper(_ToolWrapper):
    """Encapsulated schematic entry (activity ``schematic_entry``)."""

    ACTIVITY = "schematic_entry"
    TOOL = "schematic_editor"
    VIEWTYPE = "schematic"

    def _tool_step(
        self,
        session,
        library: Library,
        cell_name: str,
        needs,
        edit_fn: Callable[[SchematicEditor], None] = None,
        emit_symbol: bool = True,
        **_ignored,
    ) -> Tuple[bool, Optional[bytes], str]:
        if edit_fn is None:
            raise EncapsulationError("schematic entry needs an edit_fn")
        cell = library.cell(cell_name)
        if (
            cell.has_cellview(self.VIEWTYPE)
            and cell.cellview(self.VIEWTYPE).default_version is not None
        ):
            previous = library.read_version(cell.cellview(self.VIEWTYPE))
            editor = SchematicEditor.open_bytes(previous)
        else:
            editor = SchematicEditor()
            editor.new_design(cell_name)
        session.register_menu("edit", lambda: edit_fn(editor), replace=True)
        session.invoke_menu("edit")
        try:
            editor.require_clean()
        except SchematicError as exc:
            return False, None, f"schematic check failed: {exc}"
        outputs = {self.VIEWTYPE: editor.save_bytes()}
        details = "schematic saved"
        if emit_symbol and editor.schematic.ports():
            # the tool auto-generates the symbol view, as DFII-family
            # editors do; parents place it via the Figure 2
            # 'Symbol in Sch.V' relation
            from repro.tools.schematic.symbols import symbol_for

            outputs["symbol"] = symbol_for(editor.schematic).to_bytes()
            details = "schematic and symbol saved"
        return True, outputs, details


class DigitalSimulatorWrapper(_ToolWrapper):
    """Encapsulated digital simulation (activity ``digital_simulation``)."""

    ACTIVITY = "digital_simulation"
    TOOL = "digital_simulator"
    VIEWTYPE = "simulation"

    def _tool_step(
        self,
        session,
        library: Library,
        cell_name: str,
        needs,
        testbench_fn: Callable[[Testbench], None] = None,
        grade_coverage: bool = False,
        **_ignored,
    ) -> Tuple[bool, Optional[bytes], str]:
        if testbench_fn is None:
            raise EncapsulationError("simulation needs a testbench_fn")
        schematic_bytes = self._schematic_bytes(needs)
        schematic = Schematic.from_bytes(schematic_bytes)

        def resolver(cellref: str) -> Schematic:
            # FMCAD dynamic binding: the subcell's *default* schematic
            # version, whatever that currently is (Section 2.2).
            cellview = library.cellview(cellref, "schematic")
            return Schematic.from_bytes(library.read_version(cellview))

        netlist = netlist_schematic(schematic, resolver)
        testbench = Testbench(netlist)
        session.register_menu(
            "configure", lambda: testbench_fn(testbench), replace=True
        )
        session.invoke_menu("configure")
        report = testbench.run()
        details = (
            f"{report.checks_run} checks, "
            f"{len(report.failures)} failures"
        )
        if grade_coverage and testbench.stimulus.events:
            from repro.tools.simulator.faults import coverage_of_testbench

            report.fault_coverage = coverage_of_testbench(
                testbench
            ).coverage
            details += f", fault coverage {report.fault_coverage:.0%}"
        return report.passed, report.to_bytes(), details

    @staticmethod
    def _schematic_bytes(needs) -> bytes:
        for version, data in needs:
            if version.design_object.viewtype_name == "schematic":
                return data
        raise EncapsulationError("no schematic among staged inputs")


class LayoutEntryWrapper(_ToolWrapper):
    """Encapsulated layout entry (activity ``layout_entry``)."""

    ACTIVITY = "layout_entry"
    TOOL = "layout_editor"
    VIEWTYPE = "layout"

    def _tool_step(
        self,
        session,
        library: Library,
        cell_name: str,
        needs,
        edit_fn: Callable[[LayoutEditor], None] = None,
        drc_gate: bool = True,
        **_ignored,
    ) -> Tuple[bool, Optional[bytes], str]:
        if edit_fn is None:
            raise EncapsulationError("layout entry needs an edit_fn")
        cell = library.cell(cell_name)
        if (
            cell.has_cellview(self.VIEWTYPE)
            and cell.cellview(self.VIEWTYPE).default_version is not None
        ):
            previous = library.read_version(cell.cellview(self.VIEWTYPE))
            editor = LayoutEditor.open_bytes(previous)
        else:
            editor = LayoutEditor()
            editor.new_design(cell_name)
        session.register_menu("edit", lambda: edit_fn(editor), replace=True)
        session.invoke_menu("edit")

        def resolver(cellref: str) -> Layout:
            cellview = library.cellview(cellref, "layout")
            return Layout.from_bytes(library.read_version(cellview))

        violations = run_drc(
            editor.layout,
            resolver=resolver if editor.layout.instances() else None,
        )
        if violations and drc_gate:
            return (
                False,
                None,
                f"DRC failed: {len(violations)} violations, first: "
                f"{violations[0]}",
            )
        details = (
            "layout saved"
            if not violations
            else f"layout saved with {len(violations)} waived violations"
        )
        return True, editor.save_bytes(), details
